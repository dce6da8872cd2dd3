/// \file
/// A long-running process must not leak: repeated exploration sessions of
/// every registry workload leave the heap in use where they found it.

#include <gtest/gtest.h>
#include <malloc.h>

#include "workloads/registry.h"

namespace chef::workloads {
namespace {

constexpr uint64_t kRunsPerSession = 40;
constexpr int kMeasuredSessions = 4;

void
RunSession(const Engine::RunFn& run)
{
    Engine::Options options;
    options.max_runs = kRunsPerSession;
    options.max_seconds = 60.0;
    Engine engine(options);
    engine.Explore(run);
}

TEST(Leak, RepeatedSessionsKeepTheHeapFlat)
{
    ASSERT_EQ(AllWorkloads().size(), 11u);
    for (const WorkloadInfo& workload : AllWorkloads()) {
        const Engine::RunFn run =
            workload.make_run(interp::InterpBuildOptions::FullyOptimized());
        RunSession(run);  // Warm-up: first-use allocations settle here.
        const size_t before = mallinfo2().uordblks;
        for (int i = 0; i < kMeasuredSessions; ++i) {
            RunSession(run);
        }
        const size_t after = mallinfo2().uordblks;
        const double growth_per_run =
            (static_cast<double>(after) - static_cast<double>(before)) /
            (kMeasuredSessions * kRunsPerSession);
        EXPECT_LT(growth_per_run, 1024.0)
            << workload.id << ": heap in use grew by " << growth_per_run
            << " bytes per run";
    }
}

}  // namespace
}  // namespace chef::workloads
