#include "net/paths.h"

#include <algorithm>
#include <stdexcept>

namespace concilium::net {

PathOracle::PathOracle(const Topology& topo) {
    const std::size_t n = topo.router_count();
    offsets_.reserve(n + 1);
    edges_.reserve(2 * topo.link_count());
    offsets_.push_back(0);
    for (RouterId r = 0; r < n; ++r) {
        const auto adj = topo.neighbors(r);
        edges_.insert(edges_.end(), adj.begin(), adj.end());
        offsets_.push_back(static_cast<std::uint32_t>(edges_.size()));
    }
}

void PathOracle::bfs(RouterId src, std::vector<RouterId>& parent,
                     std::vector<LinkId>& via) const {
    const std::size_t n = offsets_.size() - 1;
    if (src >= n) throw std::out_of_range("PathOracle: source out of range");
    parent.assign(n, kInvalidRouter);
    via.assign(n, kInvalidLink);
    std::vector<RouterId> queue(n);
    std::size_t tail = 0;
    parent[src] = src;
    queue[tail++] = src;
    for (std::size_t head = 0; head < tail; ++head) {
        const RouterId r = queue[head];
        for (std::uint32_t i = offsets_[r]; i < offsets_[r + 1]; ++i) {
            const Topology::Edge e = edges_[i];
            if (parent[e.neighbor] != kInvalidRouter) continue;
            parent[e.neighbor] = r;
            via[e.neighbor] = e.link;
            // A degree-1 router's one neighbour is r, already found, so
            // popping it would add nothing; FIFO order is unchanged.
            if (offsets_[e.neighbor + 1] - offsets_[e.neighbor] > 1) {
                queue[tail++] = e.neighbor;
            }
        }
    }
}

namespace {

Path extract(RouterId src, RouterId dst, const std::vector<RouterId>& parent,
             const std::vector<LinkId>& via) {
    Path path;
    if (dst == src || parent.at(dst) == kInvalidRouter) return path;
    for (RouterId r = dst; r != src; r = parent[r]) {
        path.routers.push_back(r);
        path.links.push_back(via[r]);
    }
    path.routers.push_back(src);
    std::reverse(path.routers.begin(), path.routers.end());
    std::reverse(path.links.begin(), path.links.end());
    return path;
}

}  // namespace

Path PathOracle::path(RouterId src, RouterId dst) const {
    std::vector<RouterId> parent;
    std::vector<LinkId> via;
    bfs(src, parent, via);
    return extract(src, dst, parent, via);
}

std::vector<Path> PathOracle::paths_from(RouterId src,
                                         std::span<const RouterId> dsts) const {
    std::vector<RouterId> parent;
    std::vector<LinkId> via;
    bfs(src, parent, via);
    std::vector<Path> out;
    out.reserve(dsts.size());
    for (const RouterId dst : dsts) {
        out.push_back(extract(src, dst, parent, via));
    }
    return out;
}

std::vector<PathView> PathOracle::paths_into(RouterId src,
                                             std::span<const RouterId> dsts,
                                             util::Arena& arena) const {
    std::vector<RouterId> parent;
    std::vector<LinkId> via;
    bfs(src, parent, via);
    std::vector<PathView> out;
    out.reserve(dsts.size());
    for (const RouterId dst : dsts) {
        if (dst == src || parent.at(dst) == kInvalidRouter) {
            out.push_back(PathView{});
            continue;
        }
        std::size_t hops = 0;
        for (RouterId r = dst; r != src; r = parent[r]) ++hops;
        const auto routers = arena.make_span<RouterId>(hops + 1);
        const auto links = arena.make_span<LinkId>(hops);
        routers[0] = src;
        std::size_t i = hops;
        for (RouterId r = dst; r != src; r = parent[r], --i) {
            routers[i] = r;
            links[i - 1] = via[r];
        }
        out.push_back(PathView{routers, links});
    }
    return out;
}

}  // namespace concilium::net
