/// \file
/// Tests for the instrumented interpreter substrate: string ops, memory
/// ops, interning, and bignum behaviour under the different interpreter
/// builds (§4.2). These validate the path-explosion model that the paper's
/// Figure 11/12 experiments measure.

#include <gtest/gtest.h>

#include "chef/engine.h"
#include "interp/int_ops.h"
#include "interp/mem_ops.h"
#include "interp/str_ops.h"

namespace chef::interp {
namespace {

using lowlevel::LowLevelRuntime;
using lowlevel::SymValue;

/// Runs a guest body under a fresh engine and returns engine stats.
EngineStats
ExploreGuest(const std::function<void(LowLevelRuntime&)>& body,
             uint64_t max_runs = 400)
{
    Engine::Options options;
    options.max_runs = max_runs;
    options.collect_timeline = false;
    Engine engine(options);
    engine.Explore([&body](LowLevelRuntime& rt) {
        body(rt);
        return Engine::GuestOutcome{};
    });
    return engine.stats();
}

SymStr
MakeSymbolicStr(LowLevelRuntime& rt, const std::string& name, int len,
                const std::string& defaults = "")
{
    SymStr s;
    for (int i = 0; i < len; ++i) {
        const uint64_t default_byte =
            i < static_cast<int>(defaults.size())
                ? static_cast<uint8_t>(defaults[i])
                : 0;
        s.push_back(rt.MakeSymbolicValue(name + std::to_string(i), 8,
                                         default_byte));
    }
    return s;
}

TEST(StrOps, ConcreteRoundTrip)
{
    const SymStr s = ConcreteStr("hello");
    EXPECT_EQ(ConcreteView(s), "hello");
    EXPECT_FALSE(AnySymbolic(s));
}

TEST(StrOps, VanillaEqForksPerByte)
{
    // Comparing a 4-byte symbolic string against "chef" with the
    // short-circuiting loop yields 5 low-level paths: mismatch at each of
    // the 4 positions, plus full match.
    const EngineStats stats = ExploreGuest([](LowLevelRuntime& rt) {
        StrOps ops(&rt, InterpBuildOptions::Vanilla());
        const SymStr s = MakeSymbolicStr(rt, "s", 4);
        rt.LogPc(1, 1);
        ops.Decide(ops.Eq(s, ConcreteStr("chef")), CHEF_LLPC);
        rt.LogPc(2, 2);
    });
    EXPECT_EQ(stats.ll_paths, 5u);
}

TEST(StrOps, OptimizedEqForksOnce)
{
    // With fast paths eliminated, Eq accumulates symbolically and the
    // single Decide branch yields exactly 2 paths.
    const EngineStats stats = ExploreGuest([](LowLevelRuntime& rt) {
        StrOps ops(&rt, InterpBuildOptions::FullyOptimized());
        const SymStr s = MakeSymbolicStr(rt, "s", 4);
        rt.LogPc(1, 1);
        ops.Decide(ops.Eq(s, ConcreteStr("chef")), CHEF_LLPC);
        rt.LogPc(2, 2);
    });
    EXPECT_EQ(stats.ll_paths, 2u);
}

TEST(StrOps, EqLengthMismatchIsConcreteFalse)
{
    lowlevel::ExecutionTree tree;
    solver::Solver solver;
    LowLevelRuntime rt(&tree, &solver, {});
    rt.BeginRun(solver::Assignment());
    StrOps ops(&rt, InterpBuildOptions::Vanilla());
    const SymStr s = MakeSymbolicStr(rt, "s", 3);
    const SymValue eq = ops.Eq(s, ConcreteStr("chef"));
    EXPECT_FALSE(eq.IsSymbolic());
    EXPECT_FALSE(eq.ConcreteTruth());
    EXPECT_TRUE(tree.pending().empty());
}

TEST(StrOps, FindCharEnumeratesPositions)
{
    // find('@') over 6 symbolic bytes: 7 outcomes (positions 0..5, not
    // found) -- the paper's validateEmail path count.
    const EngineStats stats = ExploreGuest([](LowLevelRuntime& rt) {
        StrOps ops(&rt, InterpBuildOptions::FullyOptimized());
        const SymStr s = MakeSymbolicStr(rt, "s", 6);
        rt.LogPc(1, 1);
        ops.FindChar(s, SymValue('@', 8));
        rt.LogPc(2, 2);
    });
    EXPECT_EQ(stats.ll_paths, 7u);
}

TEST(StrOps, FindSubstringTerminates)
{
    const EngineStats stats = ExploreGuest(
        [](LowLevelRuntime& rt) {
            StrOps ops(&rt, InterpBuildOptions::FullyOptimized());
            const SymStr s = MakeSymbolicStr(rt, "s", 5);
            rt.LogPc(1, 1);
            ops.Find(s, ConcreteStr("ab"));
            rt.LogPc(2, 2);
        },
        100);
    // Positions 0..3 plus not-found: 5 high-level-relevant outcomes.
    EXPECT_EQ(stats.ll_paths, 5u);
}

TEST(StrOps, HashNeutralizationKillsSymbolicHash)
{
    lowlevel::ExecutionTree tree;
    solver::Solver solver;
    LowLevelRuntime rt(&tree, &solver, {});
    rt.BeginRun(solver::Assignment());

    StrOps vanilla(&rt, InterpBuildOptions::Vanilla());
    StrOps optimized(&rt, InterpBuildOptions::FullyOptimized());
    SymStr s = MakeSymbolicStr(rt, "s", 4);
    EXPECT_TRUE(vanilla.Hash(s).IsSymbolic());
    EXPECT_FALSE(optimized.Hash(s).IsSymbolic());
    EXPECT_EQ(optimized.Hash(s).concrete(), 0u);
}

TEST(StrOps, HashContractEqualStringsEqualHashes)
{
    lowlevel::ExecutionTree tree;
    solver::Solver solver;
    LowLevelRuntime rt(&tree, &solver, {});
    rt.BeginRun(solver::Assignment());
    for (const auto& options : {InterpBuildOptions::Vanilla(),
                                InterpBuildOptions::FullyOptimized()}) {
        StrOps ops(&rt, options);
        const SymValue h1 = ops.Hash(ConcreteStr("key"));
        const SymValue h2 = ops.Hash(ConcreteStr("key"));
        EXPECT_EQ(h1.concrete(), h2.concrete());
    }
}

TEST(StrOps, CharClassifiers)
{
    lowlevel::ExecutionTree tree;
    solver::Solver solver;
    LowLevelRuntime rt(&tree, &solver, {});
    rt.BeginRun(solver::Assignment());
    StrOps ops(&rt, InterpBuildOptions::FullyOptimized());
    EXPECT_TRUE(ops.IsDigit(SymValue('7', 8)).ConcreteTruth());
    EXPECT_FALSE(ops.IsDigit(SymValue('x', 8)).ConcreteTruth());
    EXPECT_TRUE(ops.IsAlpha(SymValue('g', 8)).ConcreteTruth());
    EXPECT_TRUE(ops.IsAlpha(SymValue('G', 8)).ConcreteTruth());
    EXPECT_FALSE(ops.IsAlpha(SymValue('3', 8)).ConcreteTruth());
    EXPECT_TRUE(ops.IsSpace(SymValue('\t', 8)).ConcreteTruth());
    EXPECT_EQ(ops.ToLower(SymValue('A', 8)).concrete(), 'a');
    EXPECT_EQ(ops.ToLower(SymValue('a', 8)).concrete(), 'a');
    EXPECT_EQ(ops.ToUpper(SymValue('z', 8)).concrete(), 'Z');
}

TEST(StrOps, CompareOrdersLexicographically)
{
    lowlevel::ExecutionTree tree;
    solver::Solver solver;
    LowLevelRuntime rt(&tree, &solver, {});
    rt.BeginRun(solver::Assignment());
    StrOps ops(&rt, InterpBuildOptions::FullyOptimized());
    EXPECT_LT(ops.Compare(ConcreteStr("abc"), ConcreteStr("abd")), 0);
    EXPECT_GT(ops.Compare(ConcreteStr("b"), ConcreteStr("ab")), 0);
    EXPECT_EQ(ops.Compare(ConcreteStr("same"), ConcreteStr("same")), 0);
    EXPECT_LT(ops.Compare(ConcreteStr("ab"), ConcreteStr("abc")), 0);
}

TEST(MemOps, AllocationSizeConcretizationAvoidsForks)
{
    // Optimized build: upper_bound, no forking -> a single path.
    const EngineStats stats = ExploreGuest([](LowLevelRuntime& rt) {
        SymValue n = rt.MakeSymbolicValue("n", 32, 3);
        rt.Assume(SvUlt(n, SymValue(10, 32)));
        rt.LogPc(1, 1);
        const uint64_t capacity = ResolveAllocationSize(
            &rt, n, InterpBuildOptions::FullyOptimized());
        EXPECT_EQ(capacity, 9u);  // max n with n < 10.
        rt.LogPc(2, 2);
    });
    EXPECT_EQ(stats.ll_paths, 1u);
}

TEST(MemOps, VanillaAllocationForksPerSize)
{
    const EngineStats stats = ExploreGuest([](LowLevelRuntime& rt) {
        SymValue n = rt.MakeSymbolicValue("n", 32, 3);
        rt.Assume(SvUlt(n, SymValue(6, 32)));
        rt.LogPc(1, 1);
        ResolveAllocationSize(&rt, n, InterpBuildOptions::Vanilla(), 64);
        rt.LogPc(2, 2);
    });
    // One path per feasible size 0..5.
    EXPECT_EQ(stats.ll_paths, 6u);
}

TEST(MemOps, ResolveIndexForksOverCandidates)
{
    const EngineStats stats = ExploreGuest([](LowLevelRuntime& rt) {
        SymValue i = rt.MakeSymbolicValue("i", 32, 0);
        rt.Assume(SvUlt(i, SymValue(4, 32)));
        rt.LogPc(1, 1);
        const uint64_t resolved = ResolveIndex(&rt, i, 4);
        EXPECT_LT(resolved, 4u);
        rt.LogPc(2, 2);
    });
    EXPECT_EQ(stats.ll_paths, 4u);
}

TEST(MemOps, ResolveIndexForksOnlyInsideTheIndexInterval)
{
    lowlevel::ExecutionTree tree;
    solver::Solver solver;
    LowLevelRuntime rt(&tree, &solver, {});
    rt.BeginRun(solver::Assignment());
    // index = zext(b) + 4 with b = 2: candidates 0..3 lie below the
    // interval [4, 259] and are decided without a fork; 4 and 5 fork the
    // taken-equal direction, 6 forks the not-equal one.
    const SymValue byte = rt.MakeSymbolicValue("b", 8, 2);
    const SymValue index = SvAdd(SvZExt(byte, 64), SymValue(4, 64));
    EXPECT_EQ(ResolveIndex(&rt, index, 8), 6u);
    const lowlevel::RunStats stats = rt.EndRun();
    EXPECT_EQ(stats.symbolic_branches, 3u);
    EXPECT_EQ(stats.registered_states, 3u);
}

TEST(MemOps, ResolveBucketConcreteHashNoForks)
{
    lowlevel::ExecutionTree tree;
    solver::Solver solver;
    LowLevelRuntime rt(&tree, &solver, {});
    rt.BeginRun(solver::Assignment());
    EXPECT_EQ(ResolveBucket(&rt, SymValue(13, 64), 8), 5u);
    EXPECT_TRUE(tree.pending().empty());
}

TEST(MemOps, InternTableDeduplicatesConcrete)
{
    lowlevel::ExecutionTree tree;
    solver::Solver solver;
    LowLevelRuntime rt(&tree, &solver, {});
    rt.BeginRun(solver::Assignment());
    StrOps ops(&rt, InterpBuildOptions::Vanilla());
    InternTable table(&ops);
    table.Intern(ConcreteStr("abc"));
    table.Intern(ConcreteStr("abc"));
    table.Intern(ConcreteStr("xyz"));
    EXPECT_EQ(table.size(), 2u);
}

TEST(MemOps, InterningSymbolicStringForks)
{
    // Interning a symbolic 3-byte string against an existing entry probes
    // bucket + equality: multiple low-level paths in the vanilla build.
    const EngineStats stats = ExploreGuest(
        [](LowLevelRuntime& rt) {
            StrOps ops(&rt, InterpBuildOptions::Vanilla());
            InternTable table(&ops);
            table.Intern(ConcreteStr("abc"));
            const SymStr s = MakeSymbolicStr(rt, "s", 3);
            rt.LogPc(1, 1);
            table.Intern(s);
            rt.LogPc(2, 2);
        },
        3000);
    EXPECT_GT(stats.ll_paths, 4u);
}

TEST(IntOps, NormalizeBignumConcreteIsFree)
{
    lowlevel::ExecutionTree tree;
    solver::Solver solver;
    LowLevelRuntime rt(&tree, &solver, {});
    rt.BeginRun(solver::Assignment());
    EXPECT_EQ(NormalizeBignum(&rt, SymValue(12345, 64)), 1);
    EXPECT_TRUE(tree.pending().empty());
}

TEST(IntOps, NormalizeBignumForksPerDigitBoundary)
{
    // A symbolic 64-bit value spans 1..5 digits of 15 bits: 5 paths.
    const EngineStats stats = ExploreGuest([](LowLevelRuntime& rt) {
        SymValue x = rt.MakeSymbolicValue("x", 64, 1);
        rt.Assume(SvSge(x, SymValue(0, 64)));
        rt.LogPc(1, 1);
        NormalizeBignum(&rt, x);
        rt.LogPc(2, 2);
    });
    EXPECT_EQ(stats.ll_paths, 5u);
}

TEST(IntOps, NormalizeBignumOnSmallSumForksNothing)
{
    lowlevel::ExecutionTree tree;
    solver::Solver solver;
    LowLevelRuntime rt(&tree, &solver, {});
    rt.BeginRun(solver::Assignment());
    // A sum of two zero-extended bytes is non-negative and below one
    // 15-bit digit, so neither the sign test nor the digit loop forks.
    const SymValue a = rt.MakeSymbolicValue("a", 8, 200);
    const SymValue b = rt.MakeSymbolicValue("b", 8, 100);
    const SymValue sum = SvAdd(SvZExt(a, 64), SvZExt(b, 64));
    ASSERT_TRUE(sum.IsSymbolic());
    EXPECT_EQ(NormalizeBignum(&rt, sum), 1);
    EXPECT_TRUE(tree.pending().empty());
    const lowlevel::RunStats stats = rt.EndRun();
    EXPECT_EQ(stats.symbolic_branches, 0u);
    EXPECT_EQ(stats.registered_states, 0u);
}

TEST(IntOps, SmallIntCacheForksOnlyWhenVanilla)
{
    const EngineStats vanilla = ExploreGuest([](LowLevelRuntime& rt) {
        SymValue x = rt.MakeSymbolicValue("x", 64, 7);
        rt.LogPc(1, 1);
        SmallIntCacheLookup(&rt, x, InterpBuildOptions::Vanilla());
        rt.LogPc(2, 2);
    });
    EXPECT_EQ(vanilla.ll_paths, 2u);

    const EngineStats optimized = ExploreGuest([](LowLevelRuntime& rt) {
        SymValue x = rt.MakeSymbolicValue("x", 64, 7);
        rt.LogPc(1, 1);
        SmallIntCacheLookup(&rt, x, InterpBuildOptions::FullyOptimized());
        rt.LogPc(2, 2);
    });
    EXPECT_EQ(optimized.ll_paths, 1u);
}

TEST(IntOps, ParseIntConcrete)
{
    lowlevel::ExecutionTree tree;
    solver::Solver solver;
    LowLevelRuntime rt(&tree, &solver, {});
    rt.BeginRun(solver::Assignment());
    StrOps ops(&rt, InterpBuildOptions::FullyOptimized());
    SymValue value;
    ASSERT_TRUE(ParseInt(ops, ConcreteStr("-482"), 0, 4, &value));
    EXPECT_EQ(value.concrete_signed(), -482);
    ASSERT_TRUE(ParseInt(ops, ConcreteStr("+17"), 0, 3, &value));
    EXPECT_EQ(value.concrete_signed(), 17);
    EXPECT_FALSE(ParseInt(ops, ConcreteStr("12x"), 0, 3, &value));
    EXPECT_FALSE(ParseInt(ops, ConcreteStr(""), 0, 0, &value));
    EXPECT_FALSE(ParseInt(ops, ConcreteStr("-"), 0, 1, &value));
}

TEST(IntOps, FormatIntConcrete)
{
    lowlevel::ExecutionTree tree;
    solver::Solver solver;
    LowLevelRuntime rt(&tree, &solver, {});
    rt.BeginRun(solver::Assignment());
    EXPECT_EQ(ConcreteView(FormatInt(&rt, SymValue(0, 64))), "0");
    EXPECT_EQ(ConcreteView(FormatInt(&rt, SymValue(90210, 64))), "90210");
    EXPECT_EQ(ConcreteView(FormatInt(
                  &rt, SymValue(static_cast<uint64_t>(-345), 64))),
              "-345");
}

TEST(IntOps, ParseFormatRoundTripSymbolic)
{
    // Property: for each generated test case, formatting the parsed value
    // agrees with concrete parse of the inputs.
    Engine::Options options;
    options.max_runs = 60;
    Engine engine(options);
    const auto tests = engine.Explore([](LowLevelRuntime& rt) {
        StrOps ops(&rt, InterpBuildOptions::FullyOptimized());
        SymStr s = MakeSymbolicStr(rt, "s", 3, "123");
        rt.LogPc(1, 1);
        SymValue value;
        if (ParseInt(ops, s, 0, 3, &value)) {
            const SymStr formatted = FormatInt(&rt, value);
            // On this path the concrete views must agree with C++ parsing.
            const std::string text = ConcreteView(s);
            const long expected = std::strtol(text.c_str(), nullptr, 10);
            EXPECT_EQ(std::to_string(expected), ConcreteView(formatted));
        }
        rt.LogPc(2, 2);
        return Engine::GuestOutcome{};
    });
    EXPECT_GT(engine.stats().ll_paths, 10u);
}

}  // namespace
}  // namespace chef::interp
