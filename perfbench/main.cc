/**
 * @file
 * Entry point of the benchmark binary.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    [--toy] [--corrupt CHECK] [--trace-out FILE]
 *                    [--git-sha SHA] [--source-sha SHA]
 *
 * Workloads: train-model, train-cascade, serve-live (README.md). Prints human-readable lines, then as the last line one
 * JSON object {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1. Exits 0 only when every correctness check passed.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hh"

using namespace perfbench;

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "train-model|train-cascade|serve-live "
                 "--seed N --seconds S --trace 0|1 [--toy] "
                 "[--corrupt CHECK] [--trace-out FILE] "
                 "[--git-sha SHA] [--source-sha SHA]\n");
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--toy") {
            a.toy = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                return false;
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(a.seconds > 0.0))
                return false;
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                return false;
            a.trace = v == "1";
        } else if (flag == "--corrupt") {
            a.corrupt = v;
        } else if (flag == "--trace-out") {
            a.traceOut = v;
        } else if (flag == "--git-sha") {
            a.gitSha = v;
        } else if (flag == "--source-sha") {
            a.sourceSha = v;
        } else {
            return false;
        }
    }
    return a.workload == "train-model" || a.workload == "train-cascade" ||
           a.workload == "serve-live";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        usage();
        return 2;
    }
    const bool serve = a.workload == "serve-live";
    std::printf("provenance {\"git_sha\": \"%s\", \"source_sha256\": "
                "\"%s\", \"compiler\": \"%s\", \"flags\": \"%s\", "
                "\"build_type\": \"%s\", \"nproc\": %ld, \"cpu\": "
                "\"%s\", \"pool_threads\": %d, \"reader_threads\": %d, "
                "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d, \"toy\": %d}\n",
                a.gitSha.c_str(), a.sourceSha.c_str(), PERFBENCH_COMPILER,
                PERFBENCH_FLAGS, PERFBENCH_BUILD_TYPE,
                sysconf(_SC_NPROCESSORS_ONLN), cpuModel().c_str(),
                static_cast<int>(kPoolThreads),
                static_cast<int>(serve ? kServeReaders : 0),
                a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), a.seconds,
                a.trace ? 1 : 0, a.toy ? 1 : 0);
    std::fflush(stdout);

    Result res;
    try {
        if (serve)
            runServeWorkload(a, res);
        else
            runTrainWorkload(a, res);
    } catch (const std::exception &e) {
        res.check(false, std::string("workload threw: ") + e.what());
    }
    std::printf("%s\n", res.json().c_str());
    std::fflush(stdout);
    return res.correct() ? 0 : 1;
}
