// perfbench: the repository benchmark's measuring program.  run.py builds it
// and invokes it once per run:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--trace-file FILE]...
//             [--scratch DIR] [--out-dir DIR] [--plant-bad-digest]
//
// stdout ends with "# context {...}" and then the one-line JSON result.
// Exit status: 0 when every output check passed, 1 when any failed, 2 on a
// usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.h"

namespace {

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload protocol_e2e|scan_world|"
                 "daemon_trace --seed N --seconds S --trace 0|1 "
                 "[--size full|tiny] [--trace-file FILE]... "
                 "[--scratch DIR] [--out-dir DIR] [--plant-bad-digest]\n",
                 why);
    std::exit(2);
}

std::uint64_t parse_uint(const char* flag, const char* text) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (text[0] == '\0' || text[0] == '-' || *end != '\0') {
        usage((std::string("bad value for ") + flag).c_str());
    }
    return v;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--plant-bad-digest") {
            args.plant_bad_digest = true;
            continue;
        }
        if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
        const char* value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = parse_uint("--seed", value);
        } else if (flag == "--seconds") {
            args.seconds = static_cast<double>(parse_uint("--seconds", value));
        } else if (flag == "--trace") {
            const auto t = parse_uint("--trace", value);
            if (t > 1) usage("--trace takes 0 or 1");
            args.trace = t == 1;
        } else if (flag == "--size") {
            args.size = value;
            if (args.size != "full" && args.size != "tiny") {
                usage("--size takes full or tiny");
            }
        } else if (flag == "--trace-file") {
            args.trace_files.emplace_back(value);
        } else if (flag == "--scratch") {
            args.scratch = value;
        } else if (flag == "--out-dir") {
            args.out_dir = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }

    perfbench::Result result;
    result.note("workload", args.workload);
    result.note("seed", std::to_string(args.seed));
    result.note("trace", args.trace ? "1" : "0");
    result.note("size", args.size);
    result.note("nproc", std::to_string(perfbench::nproc()));
    try {
        if (args.workload == "protocol_e2e") {
            perfbench::run_protocol_e2e(args, result);
        } else if (args.workload == "scan_world") {
            perfbench::run_scan_world(args, result);
        } else if (args.workload == "daemon_trace") {
            perfbench::run_daemon_trace(args, result);
        } else {
            usage(("unknown workload '" + args.workload + "'").c_str());
        }
    } catch (const std::exception& e) {
        result.fail(std::string("exception: ") + e.what());
    }
    if (result.attempted() == 0) result.attempt();
    std::printf("# context %s\n%s\n", result.context_json().c_str(),
                result.to_json().c_str());
    return result.failed() == 0 ? 0 : 1;
}
