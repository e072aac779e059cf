// PathOracle's flat BFS (CSR adjacency, array queue, no queue entries for
// degree-1 routers) against a kept copy of the std::deque search it
// replaced.  Every route to every router must come out identical, through
// both paths_from and paths_into.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <vector>

#include "net/paths.h"
#include "net/topology.h"
#include "net/topology_gen.h"
#include "util/arena.h"
#include "util/rng.h"

namespace concilium::net {
namespace {

/// The search as it stood before the flat rewrite, verbatim apart from
/// returning the route to every router.
std::vector<Path> reference_paths(const Topology& topo, RouterId src) {
    std::vector<RouterId> parent(topo.router_count(), kInvalidRouter);
    std::vector<LinkId> via(topo.router_count(), kInvalidLink);
    parent[src] = src;
    std::deque<RouterId> queue{src};
    while (!queue.empty()) {
        const RouterId r = queue.front();
        queue.pop_front();
        for (const Topology::Edge& e : topo.neighbors(r)) {
            if (parent[e.neighbor] == kInvalidRouter) {
                parent[e.neighbor] = r;
                via[e.neighbor] = e.link;
                queue.push_back(e.neighbor);
            }
        }
    }
    std::vector<Path> out(topo.router_count());
    for (RouterId dst = 0; dst < topo.router_count(); ++dst) {
        if (dst == src || parent[dst] == kInvalidRouter) continue;
        Path& path = out[dst];
        for (RouterId r = dst; r != src; r = parent[r]) {
            path.routers.push_back(r);
            path.links.push_back(via[r]);
        }
        path.routers.push_back(src);
        std::reverse(path.routers.begin(), path.routers.end());
        std::reverse(path.links.begin(), path.links.end());
    }
    return out;
}

std::vector<RouterId> all_routers(const Topology& topo) {
    std::vector<RouterId> every(topo.router_count());
    for (RouterId r = 0; r < every.size(); ++r) every[r] = r;
    return every;
}

void expect_matches_reference(const Topology& topo,
                              const std::vector<RouterId>& sources) {
    const PathOracle oracle(topo);
    const std::vector<RouterId> every = all_routers(topo);
    for (const RouterId src : sources) {
        SCOPED_TRACE(testing::Message() << "src " << src);
        const auto want = reference_paths(topo, src);
        const auto heap = oracle.paths_from(src, every);
        util::Arena arena;
        const auto views = oracle.paths_into(src, every, arena);
        ASSERT_EQ(heap.size(), want.size());
        ASSERT_EQ(views.size(), want.size());
        for (RouterId dst = 0; dst < want.size(); ++dst) {
            ASSERT_EQ(heap[dst].routers, want[dst].routers) << "dst " << dst;
            ASSERT_EQ(heap[dst].links, want[dst].links) << "dst " << dst;
            const Path view = views[dst].to_path();
            ASSERT_EQ(view.routers, want[dst].routers) << "dst " << dst;
            ASSERT_EQ(view.links, want[dst].links) << "dst " << dst;
        }
    }
}

/// Sources spread over the id range (core, stub and end-host routers),
/// plus the first and last end host.
std::vector<RouterId> spread_sources(const Topology& topo, std::size_t count) {
    std::vector<RouterId> sources;
    const std::size_t step = std::max<std::size_t>(1, topo.router_count() / count);
    for (RouterId r = 0; r < topo.router_count(); r += step) {
        sources.push_back(r);
    }
    const auto hosts = topo.end_hosts();
    sources.push_back(hosts.front());
    sources.push_back(hosts.back());
    return sources;
}

TEST(PathOracleEquivalence, SmallGeneratedTopologies) {
    for (const std::uint64_t seed : {1, 2, 3, 7, 11}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        util::Rng rng(seed);
        const Topology topo = generate_topology(small_params(), rng);
        expect_matches_reference(topo, all_routers(topo));
    }
}

TEST(PathOracleEquivalence, MediumGeneratedTopologies) {
    for (const std::uint64_t seed : {1, 6}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        util::Rng rng(seed);
        const Topology topo = generate_topology(medium_params(), rng);
        expect_matches_reference(topo, spread_sources(topo, 8));
    }
}

TEST(PathOracleEquivalence, DegreeOneSource) {
    // Host 0 hangs off router 1 of a triangle 1-2-3 with a leaf 4 on 3.
    Topology topo;
    for (int i = 0; i < 5; ++i) topo.add_router(RouterTier::kCore);
    topo.add_link(0, 1);
    topo.add_link(1, 2);
    topo.add_link(2, 3);
    topo.add_link(3, 1);
    topo.add_link(3, 4);
    expect_matches_reference(topo, {0, 4, 1});
    const PathOracle oracle(topo);
    EXPECT_EQ(oracle.path(0, 4).routers, (std::vector<RouterId>{0, 1, 3, 4}));
}

TEST(PathOracleEquivalence, IsolatedRouter) {
    // Router 2 has no links: unreachable from anywhere, reaches nothing.
    Topology topo;
    for (int i = 0; i < 4; ++i) topo.add_router(RouterTier::kCore);
    topo.add_link(0, 1);
    topo.add_link(1, 3);
    expect_matches_reference(topo, {0, 1, 2, 3});
    const PathOracle oracle(topo);
    EXPECT_TRUE(oracle.path(0, 2).empty());
    EXPECT_TRUE(oracle.path(2, 0).empty());
}

TEST(PathOracleEquivalence, PendantChain) {
    // A square 0-1-2-3 with the chain 2-4-5-6-7 hanging off it: only the
    // chain's end is degree 1, every interior chain router must still be
    // expanded.
    Topology topo;
    for (int i = 0; i < 8; ++i) topo.add_router(RouterTier::kCore);
    topo.add_link(0, 1);
    topo.add_link(1, 2);
    topo.add_link(2, 3);
    topo.add_link(3, 0);
    topo.add_link(2, 4);
    topo.add_link(4, 5);
    topo.add_link(5, 6);
    topo.add_link(6, 7);
    expect_matches_reference(topo, {0, 2, 5, 7});
    const PathOracle oracle(topo);
    EXPECT_EQ(oracle.path(0, 7).hops(), 6u);
    EXPECT_EQ(oracle.path(7, 0).hops(), 6u);
}

TEST(PathOracleEquivalence, TwoComponents) {
    // 0-1-2 and 3-4-5-6 (with a leaf 6); nothing crosses between them.
    Topology topo;
    for (int i = 0; i < 7; ++i) topo.add_router(RouterTier::kCore);
    topo.add_link(0, 1);
    topo.add_link(1, 2);
    topo.add_link(2, 0);
    topo.add_link(3, 4);
    topo.add_link(4, 5);
    topo.add_link(5, 3);
    topo.add_link(5, 6);
    expect_matches_reference(topo, {0, 2, 3, 6});
    const PathOracle oracle(topo);
    EXPECT_TRUE(oracle.path(0, 6).empty());
    EXPECT_EQ(oracle.path(6, 4).hops(), 2u);
}

TEST(PathOracleEquivalence, DestinationIsSource) {
    Topology topo;
    for (int i = 0; i < 3; ++i) topo.add_router(RouterTier::kCore);
    topo.add_link(0, 1);
    topo.add_link(1, 2);
    const PathOracle oracle(topo);
    const std::vector<RouterId> dsts{2, 0, 2};
    util::Arena arena;
    const auto views = oracle.paths_into(2, dsts, arena);
    const auto heap = oracle.paths_from(2, dsts);
    ASSERT_EQ(views.size(), 3u);
    EXPECT_TRUE(views[0].empty());
    EXPECT_TRUE(views[0].routers.empty());
    EXPECT_TRUE(heap[0].routers.empty());
    EXPECT_EQ(heap[1].routers, (std::vector<RouterId>{2, 1, 0}));
    EXPECT_TRUE(views[2].empty());
    EXPECT_TRUE(oracle.path(1, 1).empty());
}

TEST(PathOracleEquivalence, OutOfRangeRouterThrows) {
    Topology topo;
    topo.add_router(RouterTier::kCore);
    topo.add_router(RouterTier::kCore);
    topo.add_link(0, 1);
    const PathOracle oracle(topo);
    EXPECT_THROW((void)oracle.path(2, 0), std::out_of_range);
    EXPECT_THROW((void)oracle.path(0, 2), std::out_of_range);
}

}  // namespace
}  // namespace concilium::net
