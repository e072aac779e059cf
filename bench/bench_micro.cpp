// Micro-benchmarks (google-benchmark): throughput of Concilium's hot paths.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/blame.h"
#include "core/validation.h"
#include "crypto/certificates.h"
#include "dht/dht.h"
#include "net/event_sim.h"
#include "net/paths.h"
#include "net/topology_gen.h"
#include "overlay/advertisement.h"
#include "overlay/density.h"
#include "overlay/network.h"
#include "sim/experiment_driver.h"
#include "tomography/inference.h"
#include "tomography/probing.h"
#include "tomography/verification.h"
#include "util/rng.h"

namespace {

using namespace concilium;

overlay::OverlayNetwork make_net(std::size_t n, std::uint64_t seed) {
    crypto::CertificateAuthority ca(seed);
    util::Rng rng(seed + 1);
    std::vector<overlay::Member> members;
    members.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        auto adm = ca.admit(static_cast<crypto::IpAddress>(i));
        members.push_back(
            overlay::Member{std::move(adm.certificate), std::move(adm.keys)});
    }
    return overlay::OverlayNetwork(std::move(members), overlay::OverlayParams{},
                                   rng);
}

void BM_SignVerify(benchmark::State& state) {
    const auto keys = crypto::KeyPair::from_seed(1);
    crypto::KeyRegistry registry;
    registry.register_key(keys);
    const std::string message(256, 'x');
    for (auto _ : state) {
        const auto sig = keys.sign(message);
        benchmark::DoNotOptimize(registry.verify(keys.public_key(), message, sig));
    }
}
BENCHMARK(BM_SignVerify);

void BM_ComputeBlame(benchmark::State& state) {
    const auto probes_per_link = static_cast<int>(state.range(0));
    std::vector<net::LinkId> path;
    std::vector<core::ProbeResult> probes;
    util::Rng rng(2);
    for (net::LinkId l = 0; l < 12; ++l) {
        path.push_back(l);
        for (int p = 0; p < probes_per_link; ++p) {
            probes.push_back(core::ProbeResult{util::NodeId::random(rng), l,
                                               rng.bernoulli(0.9), 0});
        }
    }
    const auto judged = util::NodeId::random(rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::compute_blame(path, probes, 0, judged, core::BlameParams{}));
    }
}
BENCHMARK(BM_ComputeBlame)->Arg(1)->Arg(4)->Arg(16);

void BM_SecureRoute(benchmark::State& state) {
    const auto net = make_net(static_cast<std::size_t>(state.range(0)), 3);
    util::Rng rng(4);
    for (auto _ : state) {
        const auto key = util::NodeId::random(rng);
        benchmark::DoNotOptimize(
            net.route(static_cast<overlay::MemberIndex>(
                          rng.uniform_index(net.size())),
                      key));
    }
}
BENCHMARK(BM_SecureRoute)->Arg(200)->Arg(1000);

void BM_OverlayConstruction(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(make_net(n, 5));
    }
}
BENCHMARK(BM_OverlayConstruction)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_OccupancyModel(benchmark::State& state) {
    const util::OverlayGeometry geom{.digits = 32};
    for (auto _ : state) {
        benchmark::DoNotOptimize(overlay::occupancy_model(100000, geom));
    }
}
BENCHMARK(BM_OccupancyModel);

void BM_DensityErrorIntegral(benchmark::State& state) {
    const util::OverlayGeometry geom{.digits = 32};
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            overlay::density_false_positive(1.5, 10000, 10000, geom));
    }
}
BENCHMARK(BM_DensityErrorIntegral);

// A self-rescheduling POD event chain: each dispatch posts the next event,
// so the benchmark measures steady-state calendar-queue throughput on the
// path the Cluster's converted per-packet/per-judgment events take.
struct PodChain {
    net::EventSim* sim = nullptr;
    net::EventSim::HandlerId handler = 0;
    std::uint64_t fired = 0;
    static void dispatch(void* ctx, std::uint32_t, std::uint64_t,
                         std::uint64_t) {
        auto* chain = static_cast<PodChain*>(ctx);
        ++chain->fired;
        chain->sim->post_after(100, chain->handler);
    }
};

void BM_EventSimPodDispatch(benchmark::State& state) {
    net::EventSim sim;
    PodChain chain;
    chain.sim = &sim;
    chain.handler = sim.register_handler(&chain, &PodChain::dispatch);
    // 64 concurrent chains spread over the wheel.
    for (int i = 0; i < 64; ++i) sim.post_after(i, chain.handler);
    for (auto _ : state) {
        sim.run_until(sim.now() + 10000);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(chain.fired));
    benchmark::DoNotOptimize(chain.fired);
}
BENCHMARK(BM_EventSimPodDispatch);

void BM_EventSimCallbackDispatch(benchmark::State& state) {
    // The legacy std::function slab path, for comparison with POD dispatch.
    // The protocol runtime no longer rides it per event; tests, the
    // daemon's trace injection and perfbench still do.
    net::EventSim sim;
    std::uint64_t fired = 0;
    std::function<void()> chain;
    chain = [&] {
        ++fired;
        sim.schedule_after(100, chain);
    };
    for (int i = 0; i < 64; ++i) sim.schedule_after(i, chain);
    for (auto _ : state) {
        sim.run_until(sim.now() + 10000);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventSimCallbackDispatch);

// One BFS per source on a generated medium topology, extracting the paths to
// 64 end hosts; sources walk the remaining end hosts.
struct BfsKernel {
    BfsKernel()
        : topo(make_topology()),
          oracle(topo),
          hosts(topo.end_hosts()),
          dsts(hosts.begin(), hosts.begin() + 64) {}

    static net::Topology make_topology() {
        util::Rng rng(6);
        return net::generate_topology(net::medium_params(), rng);
    }

    [[nodiscard]] std::vector<net::Path> run(std::size_t i) const {
        return oracle.paths_from(hosts[(64 + i) % hosts.size()], dsts);
    }

    net::Topology topo;
    net::PathOracle oracle;
    std::vector<net::RouterId> hosts;
    std::vector<net::RouterId> dsts;
};

const BfsKernel& bfs_kernel() {
    static const BfsKernel kernel;
    return kernel;
}

void BM_BfsPathExtraction(benchmark::State& state) {
    const BfsKernel& k = bfs_kernel();
    std::size_t i = 0;
    for (auto _ : state) benchmark::DoNotOptimize(k.run(i++));
}
BENCHMARK(BM_BfsPathExtraction)->Unit(benchmark::kMillisecond);

void BM_MincInference(benchmark::State& state) {
    // A 3-level tree with 27 leaves and 500 stripes.
    net::Topology topo;
    const auto root = topo.add_router(net::RouterTier::kCore);
    std::vector<net::RouterId> hosts;
    for (int a = 0; a < 3; ++a) {
        const auto l1 = topo.add_router(net::RouterTier::kCore);
        topo.add_link(root, l1);
        for (int b = 0; b < 3; ++b) {
            const auto l2 = topo.add_router(net::RouterTier::kCore);
            topo.add_link(l1, l2);
            for (int c = 0; c < 3; ++c) {
                const auto leaf = topo.add_router(net::RouterTier::kEndHost);
                topo.add_link(l2, leaf);
                hosts.push_back(leaf);
            }
        }
    }
    const net::PathOracle oracle(topo);
    const tomography::ProbeTree tree(root, oracle.paths_from(root, hosts));
    util::Rng rng(7);
    const auto pass = [](net::LinkId l, util::SimTime) {
        return l % 5 == 0 ? 0.85 : 1.0;
    };
    const auto session = tomography::run_heavyweight_session(
        tree, pass, 0, tomography::HeavyweightParams{.probe_count = 500}, {},
        rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tomography::infer_link_loss(tree, session.probes));
    }
}
BENCHMARK(BM_MincInference);

// One member's probe tree on a generated medium topology: an end host and
// 28 others (the runtime's typical routing-peer count), with fractional
// per-link pass probabilities drawn at run time so nothing constant-folds.
struct ProbeKernel {
    ProbeKernel() {
        util::Rng rng(12);
        topo = net::generate_topology(net::medium_params(), rng);
        const auto hosts = topo.end_hosts();
        std::vector<net::RouterId> dsts;
        const std::size_t stride = hosts.size() / 29;
        for (std::size_t i = 1; i <= 28; ++i) dsts.push_back(hosts[i * stride]);
        const net::PathOracle oracle(topo);
        tree.emplace(hosts[0], oracle.paths_from(hosts[0], dsts));
        pass_by_link.resize(topo.link_count());
        for (double& p : pass_by_link) p = rng.uniform(0.97, 1.0);
        pass = [this](net::LinkId l, util::SimTime) {
            return pass_by_link[l];
        };
    }

    /// The runtime's heavyweight path (Cluster::run_heavyweight): a session,
    /// feedback verification, then MINC on the surviving feedback.
    [[nodiscard]] std::size_t heavyweight(util::SimTime t0,
                                          util::Rng& rng) const {
        auto session = tomography::run_heavyweight_session(
            *tree, pass, t0, tomography::HeavyweightParams{.probe_count = 100},
            {}, rng);
        const auto excluded = tomography::exclude_unverified_feedback(
            *tree, session.probes, tomography::SuppressionTestParams{});
        const auto inference =
            tomography::infer_link_loss(*tree, session.probes);
        return excluded.size() + inference.links.size();
    }

    net::Topology topo;
    std::optional<tomography::ProbeTree> tree;
    std::vector<double> pass_by_link;
    tomography::PassProbabilityFn pass;
};

const ProbeKernel& probe_kernel() {
    static const ProbeKernel kernel;
    return kernel;
}

void BM_StripedProbe(benchmark::State& state) {
    const ProbeKernel& k = probe_kernel();
    util::Rng rng(13);
    util::SimTime t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tomography::sample_striped_probe(*k.tree, k.pass, t, {}, rng));
        t += 50 * util::kMillisecond;
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["tree_nodes"] =
        static_cast<double>(k.tree->nodes().size());
}
BENCHMARK(BM_StripedProbe);

void BM_HeavyweightSession(benchmark::State& state) {
    const ProbeKernel& k = probe_kernel();
    util::Rng rng(14);
    util::SimTime t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(k.heavyweight(t, rng));
        t += util::kMinute;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeavyweightSession)->Unit(benchmark::kMicrosecond);

void BM_DhtPutGet(benchmark::State& state) {
    const auto net = make_net(300, 8);
    dht::Dht store(net, 4);
    util::Rng rng(9);
    const std::vector<std::uint8_t> value(512, 0xab);
    for (auto _ : state) {
        const auto key = util::NodeId::random(rng);
        store.put(0, key, value);
        benchmark::DoNotOptimize(store.get(1, key));
    }
}
BENCHMARK(BM_DhtPutGet);

void BM_ExperimentDriver(benchmark::State& state) {
    // Fan-out overhead of the experiment driver: 256 small trials (draw and
    // sum 1k uniforms each) merged in order, at the worker count in range(0).
    const auto jobs = static_cast<std::size_t>(state.range(0));
    const sim::ExperimentDriver driver(1, jobs);
    for (auto _ : state) {
        double total = 0.0;
        driver.run(
            256,
            [](std::uint64_t, util::Rng& rng) {
                double s = 0.0;
                for (int i = 0; i < 1000; ++i) s += rng.uniform(0.0, 1.0);
                return s;
            },
            [&](std::uint64_t, double&& s) { total += s; });
        benchmark::DoNotOptimize(total);
    }
}
BENCHMARK(BM_ExperimentDriver)->Arg(1)->Arg(2)->Arg(4);

void BM_AdvertisementValidation(benchmark::State& state) {
    crypto::CertificateAuthority ca(10);
    util::Rng rng(11);
    std::vector<overlay::Member> members;
    for (std::size_t i = 0; i < 300; ++i) {
        auto adm = ca.admit(static_cast<crypto::IpAddress>(i));
        members.push_back(
            overlay::Member{std::move(adm.certificate), std::move(adm.keys)});
    }
    const overlay::OverlayNetwork net(std::move(members),
                                      overlay::OverlayParams{}, rng);
    std::unordered_map<util::NodeId, crypto::PublicKey, util::NodeIdHash> keys;
    crypto::KeyRegistry registry;
    for (overlay::MemberIndex i = 0; i < net.size(); ++i) {
        keys.emplace(net.member(i).id(), net.member(i).keys.public_key());
        registry.register_key(net.member(i).keys);
    }
    const util::SimTime now = 10 * util::kMinute;
    const auto ad = overlay::make_advertisement(
        net, 3, now, [&](overlay::MemberIndex) { return now; });
    core::ValidationParams params;
    params.geometry = net.params().geometry;
    params.gamma = 2.0;
    const auto key_of = [&](const util::NodeId& id)
        -> std::optional<crypto::PublicKey> {
        const auto it = keys.find(id);
        if (it == keys.end()) return std::nullopt;
        return it->second;
    };
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::validate_advertisement(
            ad, net.secure_table(0).density(), now, params, key_of,
            registry));
    }
}
BENCHMARK(BM_AdvertisementValidation);

}  // namespace

// Expanded BENCHMARK_MAIN() so we can strip --metrics-out / --bench-out
// (google-benchmark rejects flags it does not recognise) before handing
// argv over.
int main(int argc, char** argv) {
    std::string bench_out;
    std::vector<char*> kept;
    kept.reserve(static_cast<std::size_t>(argc));
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
            concilium::bench::set_metrics_out(argv[++i]);
            continue;
        }
        if (std::strcmp(argv[i], "--bench-out") == 0 && i + 1 < argc) {
            bench_out = argv[++i];
            continue;
        }
        kept.push_back(argv[i]);
    }
    int kept_argc = static_cast<int>(kept.size());
    benchmark::Initialize(&kept_argc, kept.data());
    if (benchmark::ReportUnrecognizedArguments(kept_argc, kept.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();

    // Perf trajectory: fixed-size POD event-dispatch, probing-kernel and
    // path-oracle measurements, written as BENCH_micro.json for
    // tools/check_perf.py.
    // Independent of --benchmark_filter so the gated numbers are always
    // comparable.
    if (!bench_out.empty()) {
        using Clock = std::chrono::steady_clock;
        const auto rate = [](double count, Clock::time_point since) {
            const double s =
                std::chrono::duration<double>(Clock::now() - since).count();
            return s > 0.0 ? count / s : 0.0;
        };
        const ProbeKernel& kernel = probe_kernel();  // built off the clock
        concilium::util::Rng rng(15);
        constexpr int kStripes = 20000;
        auto start = Clock::now();
        std::size_t sink = 0;
        for (int i = 0; i < kStripes; ++i) {
            sink += concilium::tomography::sample_striped_probe(
                        *kernel.tree, kernel.pass, i * 1000, {}, rng)
                        .acked.size();
        }
        const double stripes_per_sec = rate(kStripes, start);
        constexpr int kSessions = 200;
        start = Clock::now();
        for (int i = 0; i < kSessions; ++i) {
            sink += kernel.heavyweight(i * concilium::util::kMinute, rng);
        }
        const double sessions_per_sec = rate(kSessions, start);
        const BfsKernel& bfs = bfs_kernel();  // built off the clock
        constexpr int kBfsSources = 1000;
        start = Clock::now();
        for (int i = 0; i < kBfsSources; ++i) sink += bfs.run(i).size();
        const double bfs_sources_per_sec = rate(kBfsSources, start);
        benchmark::DoNotOptimize(sink);

        concilium::bench::BenchReport report("micro");
        concilium::net::EventSim sim;
        PodChain chain;
        chain.sim = &sim;
        chain.handler = sim.register_handler(&chain, &PodChain::dispatch);
        for (int i = 0; i < 64; ++i) sim.post_after(i, chain.handler);
        // 64 chains x one event per 100 us => ~12.8M events over 20 sim-s.
        sim.run_until(20'000'000);
        report.finish();
        report.set("stripes_per_sec", stripes_per_sec);
        report.set("heavyweight_sessions_per_sec", sessions_per_sec);
        report.set("bfs_sources_per_sec", bfs_sources_per_sec);
        report.write(bench_out);
    }
    return 0;
}
