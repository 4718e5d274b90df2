// End-to-end benchmark binary. Usage:
//
//   e2ebench --workload live_gateway|replay_saturate|churn_evict
//            --seed N --seconds S --trace 0|1
//
// Prints human-readable report lines, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics and ledger with
// --trace 1. Exit status: 0 correct, 1 outputs wrong, 2 usage,
// 3 invalid run (the load generator missed its own schedule).
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using namespace e2e;

std::size_t usable_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<std::size_t>(CPU_COUNT(&set));
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

std::string cpu_model() {
    std::FILE* f = std::fopen("/proc/cpuinfo", "r");
    if (f == nullptr) return "unknown";
    char line[512];
    std::string model = "unknown";
    while (std::fgets(line, sizeof line, f) != nullptr) {
        const std::string l = line;
        const std::size_t colon = l.find(':');
        if (l.rfind("model name", 0) == 0 && colon != std::string::npos) {
            const std::size_t b = l.find_first_not_of(" \t", colon + 1);
            const std::size_t e = l.find_last_not_of(" \t\n");
            if (b != std::string::npos && e >= b)
                model = l.substr(b, e - b + 1);
            break;
        }
    }
    std::fclose(f);
    return model;
}

bool parse(int argc, char** argv, Options& opt) {
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            opt.workload = val;
            have_workload = true;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
            if (*end != '\0') return false;
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
            if (*end != '\0' || !(opt.seconds > 0.0)) return false;
        } else if (key == "--trace") {
            if (val != "0" && val != "1") return false;
            opt.trace = val == "1";
        } else {
            return false;
        }
    }
    return have_workload && argc % 2 == 1;
}

void print_json(const RunResult& res) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                res.correct ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    for (std::size_t i = 0; i < res.metrics.size(); ++i) {
        const Metric& m = res.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    if (!parse(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: e2ebench --workload NAME --seed N --seconds S "
                     "--trace 0|1\n");
        return 2;
    }
    // Thread budget: the pool's workers plus the thread that generates
    // load and calls pump() (parallel_for runs on it too) never exceed
    // the CPUs this process may use, nor kMaxThreads.
    opt.threads = std::min(usable_cpus(), kMaxThreads);
    ThreadPool pool(opt.threads > 1 ? opt.threads - 1 : 1);
    opt.pool = &pool;

    RunResult res;
    try {
        if (opt.workload == "live_gateway")
            res = run_live_gateway(opt);
        else if (opt.workload == "replay_saturate")
            res = run_replay_saturate(opt);
        else if (opt.workload == "churn_evict")
            res = run_churn_evict(opt);
        else {
            std::fprintf(stderr, "e2ebench: unknown workload '%s'\n",
                         opt.workload.c_str());
            return 2;
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 1;
    }

    std::printf("workload %s, seed %llu, %g s, trace %d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::printf("host: %s, nproc %zu, build %s, threads %zu = pool %zu + "
                "caller\n",
                cpu_model().c_str(), usable_cpus(), E2E_BUILD_TYPE,
                opt.threads, pool.size());
    std::printf("inputs fingerprint %016llx\n",
                static_cast<unsigned long long>(res.inputs));
    for (const std::string& line : res.report)
        std::printf("%s\n", line.c_str());
    for (const std::string& e : res.errors)
        std::fprintf(stderr, "e2ebench: check failed: %s\n", e.c_str());
    if (!res.invalid.empty()) {
        std::fprintf(stderr, "e2ebench: invalid run: %s\n",
                     res.invalid.c_str());
        return 3;
    }
    std::fflush(stdout);
    print_json(res);
    return res.correct ? 0 : 1;
}
