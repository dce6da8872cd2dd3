/// \file
/// Tests for SymValue concolic arithmetic, the execution tree, and the
/// low-level runtime.

#include <gtest/gtest.h>

#include "lowlevel/exec_tree.h"
#include "lowlevel/runtime.h"
#include "lowlevel/symvalue.h"
#include "support/rng.h"

namespace chef::lowlevel {
namespace {

using solver::Assignment;
using solver::EvalConcrete;
using solver::QueryResult;

TEST(SymValue, ConcreteOnlyCarriesNoExpr)
{
    const SymValue a(5, 32);
    const SymValue b(7, 32);
    const SymValue sum = SvAdd(a, b);
    EXPECT_EQ(sum.concrete(), 12u);
    EXPECT_FALSE(sum.IsSymbolic());
}

TEST(SymValue, SymbolicPropagates)
{
    const SymValue x(5, 32, solver::MakeVar(1, "x", 32));
    const SymValue sum = SvAdd(x, SymValue(7, 32));
    EXPECT_EQ(sum.concrete(), 12u);
    ASSERT_TRUE(sum.IsSymbolic());
    Assignment assignment;
    assignment.Set(1, 100);
    EXPECT_EQ(EvalConcrete(sum.ToExpr(), assignment), 107u);
}

TEST(SymValue, ConstantExpressionIsDropped)
{
    const SymValue v(9, 16, solver::MakeConst(9, 16));
    EXPECT_FALSE(v.IsSymbolic());
}

/// Property: concolic ops keep concrete and symbolic views consistent: the
/// expression evaluated under the inputs equals the concrete value.
class SymValueConsistency : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SymValueConsistency, ConcreteMatchesExprEval)
{
    Rng rng(GetParam());
    Assignment inputs;
    const uint64_t xv = rng.Next() & 0xffffffffu;
    const uint64_t yv = rng.Next() & 0xffffffffu;
    inputs.Set(1, xv);
    inputs.Set(2, yv);
    const SymValue x(xv, 32, solver::MakeVar(1, "x", 32));
    const SymValue y(yv, 32, solver::MakeVar(2, "y", 32));

    using Op = SymValue (*)(const SymValue&, const SymValue&);
    const Op ops[] = {SvAdd, SvSub, SvMul,  SvUDiv, SvSDiv, SvURem,
                      SvSRem, SvAnd, SvOr,  SvXor,  SvShl,  SvLShr,
                      SvAShr, SvEq,  SvNe,  SvUlt,  SvUle,  SvSlt,
                      SvSle,  SvSgt, SvSge};
    for (const Op op : ops) {
        const SymValue result = op(x, y);
        ASSERT_TRUE(result.IsSymbolic());
        EXPECT_EQ(result.concrete(),
                  EvalConcrete(result.ToExpr(), inputs));
    }
    const SymValue extended = SvSExt(SvTrunc(x, 8), 64);
    EXPECT_EQ(extended.concrete(),
              EvalConcrete(extended.ToExpr(), inputs));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymValueConsistency,
                         ::testing::Values(3, 5, 8, 13, 21, 34));

TEST(ExecTree, RegistersAlternateOnFirstBranch)
{
    ExecutionTree tree;
    ExecutionTree::Cursor cursor;
    const auto cond = solver::MakeEq(solver::MakeVar(1, "x", 8),
                                     solver::MakeConst(1, 8));
    tree.BeginRun(cursor);
    auto result = tree.Advance(cursor, 100, true,
                               cond, solver::MakeBoolNot(cond), {});
    ASSERT_NE(result.registered, 0u);
    const AlternateState* state = tree.FindPending(result.registered);
    ASSERT_NE(state, nullptr);
    EXPECT_EQ(state->llpc, 100u);
    EXPECT_FALSE(state->direction);
    EXPECT_EQ(state->path_condition.size(), 1u);
    EXPECT_EQ(tree.pending().size(), 1u);
}

TEST(ExecTree, NoDuplicateRegistration)
{
    ExecutionTree tree;
    ExecutionTree::Cursor cursor;
    const auto cond = solver::MakeEq(solver::MakeVar(1, "x", 8),
                                     solver::MakeConst(1, 8));
    const auto negated = solver::MakeBoolNot(cond);
    tree.BeginRun(cursor);
    tree.Advance(cursor, 100, true, cond, negated, {});
    // Second run takes the same direction: no new registration.
    tree.BeginRun(cursor);
    auto result = tree.Advance(cursor, 100, true, cond, negated, {});
    EXPECT_EQ(result.registered, 0u);
    EXPECT_EQ(tree.pending().size(), 1u);
}

TEST(ExecTree, NaturalExplorationRemovesPending)
{
    ExecutionTree tree;
    ExecutionTree::Cursor cursor;
    std::vector<StateId> removed;
    tree.set_on_pending_removed(
        [&removed](StateId id) { removed.push_back(id); });
    const auto cond = solver::MakeEq(solver::MakeVar(1, "x", 8),
                                     solver::MakeConst(1, 8));
    const auto negated = solver::MakeBoolNot(cond);
    tree.BeginRun(cursor);
    auto first = tree.Advance(cursor, 100, true, cond, negated, {});
    const StateId pending_id = first.registered;
    // A later run takes the other direction without the strategy ever
    // selecting the alternate: the pending state is consumed.
    tree.BeginRun(cursor);
    auto second = tree.Advance(cursor, 100, false, negated, cond, {});
    EXPECT_EQ(second.registered, 0u);
    EXPECT_TRUE(tree.pending().empty());
    ASSERT_EQ(removed.size(), 1u);
    EXPECT_EQ(removed[0], pending_id);
}

TEST(ExecTree, PathConditionAccumulates)
{
    ExecutionTree tree;
    ExecutionTree::Cursor cursor;
    const auto x = solver::MakeVar(1, "x", 8);
    const auto c1 = solver::MakeUgt(x, solver::MakeConst(10, 8));
    const auto c2 = solver::MakeUlt(x, solver::MakeConst(100, 8));
    tree.BeginRun(cursor);
    tree.Advance(cursor, 1, true, c1, solver::MakeBoolNot(c1), {});
    auto result = tree.Advance(cursor, 2, true,
                               c2, solver::MakeBoolNot(c2), {});
    // The alternate at the second branch carries the first constraint plus
    // the negation of the second.
    ASSERT_NE(result.registered, 0u);
    const AlternateState* alternate = tree.FindPending(result.registered);
    ASSERT_NE(alternate, nullptr);
    ASSERT_EQ(alternate->path_condition.size(), 2u);
    EXPECT_TRUE(solver::Expr::Equal(alternate->path_condition[0], c1));
    EXPECT_EQ(cursor.path_condition().size(), 2u);
}

TEST(ExecTree, ClaimAndMarkInfeasible)
{
    ExecutionTree tree;
    ExecutionTree::Cursor cursor;
    const auto cond = solver::MakeEq(solver::MakeVar(1, "x", 8),
                                     solver::MakeConst(1, 8));
    tree.BeginRun(cursor);
    auto result = tree.Advance(cursor, 7, true,
                               cond, solver::MakeBoolNot(cond), {});
    const StateId id = result.registered;
    AlternateState state = tree.ClaimState(id);
    EXPECT_TRUE(tree.pending().empty());
    EXPECT_EQ(tree.states_in_flight(), 1u);
    tree.MarkInfeasible(state);
    EXPECT_EQ(tree.states_in_flight(), 0u);
    // Re-running the same branch direction must not re-register the
    // infeasible direction.
    tree.BeginRun(cursor);
    auto again = tree.Advance(cursor, 7, true,
                              cond, solver::MakeBoolNot(cond), {});
    EXPECT_EQ(again.registered, 0u);
}

class RuntimeFixture : public ::testing::Test
{
  protected:
    RuntimeFixture()
        : runtime_(&tree_, &solver_, lowlevel::LowLevelRuntime::Options{})
    {
    }

    ExecutionTree tree_;
    solver::Solver solver_;
    LowLevelRuntime runtime_;
};

TEST_F(RuntimeFixture, MakeSymbolicUsesDefaultsThenAssignment)
{
    runtime_.BeginRun(Assignment());
    SymValue x = runtime_.MakeSymbolicValue("x", 8, 42);
    EXPECT_EQ(x.concrete(), 42u);
    EXPECT_TRUE(x.IsSymbolic());
    runtime_.EndRun();

    Assignment inputs;
    inputs.Set(1, 7);
    runtime_.BeginRun(inputs);
    x = runtime_.MakeSymbolicValue("x", 8, 42);
    EXPECT_EQ(x.concrete(), 7u);
}

TEST_F(RuntimeFixture, ConcreteBranchDoesNotFork)
{
    runtime_.BeginRun(Assignment());
    EXPECT_TRUE(runtime_.Branch(SymValue(1, 1), CHEF_LLPC));
    EXPECT_FALSE(runtime_.Branch(SymValue(0, 1), CHEF_LLPC));
    EXPECT_TRUE(tree_.pending().empty());
}

TEST_F(RuntimeFixture, SymbolicBranchForksAndFollowsConcrete)
{
    runtime_.BeginRun(Assignment());
    SymValue x = runtime_.MakeSymbolicValue("x", 8, 5);
    const SymValue cond = SvUgt(x, SymValue(10, 8));
    EXPECT_FALSE(runtime_.Branch(cond, 1234));
    EXPECT_EQ(tree_.pending().size(), 1u);
    const RunStats stats = runtime_.EndRun();
    EXPECT_EQ(stats.symbolic_branches, 1u);
    EXPECT_EQ(stats.registered_states, 1u);
}

TEST_F(RuntimeFixture, IntervalDecidedBranchDoesNotFork)
{
    runtime_.BeginRun(Assignment());
    const SymValue byte = runtime_.MakeSymbolicValue("b", 8, 3);
    // 4 + zext(b) + 2 lies in [6, 261]: never negative, whatever b is.
    const SymValue sum = SvAdd(SvAdd(SymValue(4, 64), SvZExt(byte, 64)),
                               SymValue(2, 64));
    ASSERT_TRUE(sum.IsSymbolic());
    EXPECT_FALSE(runtime_.Branch(SvSlt(sum, SymValue(0, 64)), 1234));
    EXPECT_TRUE(runtime_.Branch(SvUlt(sum, SymValue(262, 64)), 1235));
    EXPECT_TRUE(tree_.pending().empty());
    const RunStats stats = runtime_.EndRun();
    EXPECT_EQ(stats.symbolic_branches, 0u);
    EXPECT_EQ(stats.registered_states, 0u);
}

TEST_F(RuntimeFixture, AssumeViolationAbortsPath)
{
    runtime_.BeginRun(Assignment());
    SymValue x = runtime_.MakeSymbolicValue("x", 8, 5);
    runtime_.Assume(SvUgt(x, SymValue(100, 8)));  // Concretely false.
    EXPECT_EQ(runtime_.status(), PathStatus::kAssumeViolated);
    // The assumption is still in the path condition for re-solving.
    EXPECT_EQ(runtime_.current_path_condition().size(), 1u);
}

TEST_F(RuntimeFixture, ConcretizeAddsEqualityConstraint)
{
    runtime_.BeginRun(Assignment());
    SymValue x = runtime_.MakeSymbolicValue("x", 8, 33);
    EXPECT_EQ(runtime_.Concretize(x), 33u);
    ASSERT_EQ(runtime_.current_path_condition().size(), 1u);
    // The constraint pins x to 33.
    Assignment model;
    ASSERT_EQ(solver_.Solve(runtime_.current_path_condition(), &model),
              QueryResult::kSat);
    EXPECT_EQ(model.Get(1), 33u);
}

TEST_F(RuntimeFixture, UpperBoundUnderPathCondition)
{
    runtime_.BeginRun(Assignment());
    SymValue x = runtime_.MakeSymbolicValue("x", 8, 5);
    // Branch concretely taken: x < 57.
    runtime_.Branch(SvUlt(x, SymValue(57, 8)), CHEF_LLPC);
    EXPECT_EQ(runtime_.UpperBound(x), 56u);
}

TEST_F(RuntimeFixture, StepBudgetFlagsHang)
{
    LowLevelRuntime::Options options;
    options.max_steps_per_run = 100;
    LowLevelRuntime tight(&tree_, &solver_, options);
    tight.BeginRun(Assignment());
    for (int i = 0; i < 200 && tight.running(); ++i) {
        tight.CountStep();
    }
    EXPECT_EQ(tight.status(), PathStatus::kHang);
    EXPECT_TRUE(tight.out_of_budget());
}

TEST_F(RuntimeFixture, ForkWeightStreakDecays)
{
    // Three consecutive forks at the same LLPC: weights p^2, p, 1.
    runtime_.BeginRun(Assignment());
    SymValue s0 = runtime_.MakeSymbolicValue("s0", 8, 'a');
    SymValue s1 = runtime_.MakeSymbolicValue("s1", 8, 'b');
    SymValue s2 = runtime_.MakeSymbolicValue("s2", 8, 'c');
    const uint64_t loop_llpc = 999;
    std::vector<StateId> ids;
    for (const SymValue* byte : {&s0, &s1, &s2}) {
        runtime_.Branch(SvEq(*byte, SymValue('x', 8)), loop_llpc);
    }
    ASSERT_EQ(tree_.pending().size(), 3u);
    std::vector<double> weights;
    for (const auto& [id, state] : tree_.pending()) {
        weights.push_back(state.fork_weight);
    }
    std::sort(weights.begin(), weights.end());
    EXPECT_DOUBLE_EQ(weights[0], 0.75 * 0.75);
    EXPECT_DOUBLE_EQ(weights[1], 0.75);
    EXPECT_DOUBLE_EQ(weights[2], 1.0);
}

TEST_F(RuntimeFixture, ForkWeightStreakBrokenByOtherSite)
{
    runtime_.BeginRun(Assignment());
    SymValue s0 = runtime_.MakeSymbolicValue("s0", 8, 'a');
    SymValue s1 = runtime_.MakeSymbolicValue("s1", 8, 'b');
    runtime_.Branch(SvEq(s0, SymValue('x', 8)), 111);
    runtime_.Branch(SvEq(s1, SymValue('x', 8)), 222);
    for (const auto& [id, state] : tree_.pending()) {
        EXPECT_DOUBLE_EQ(state.fork_weight, 1.0);
    }
}

TEST_F(RuntimeFixture, LlpcFromLocationIsStable)
{
    const uint64_t a = LlpcFromLocation("foo.cc", 10);
    const uint64_t b = LlpcFromLocation("foo.cc", 10);
    const uint64_t c = LlpcFromLocation("foo.cc", 11);
    const uint64_t d = LlpcFromLocation("bar.cc", 10);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(a, d);
}

TEST(Llpc, IndependentOfTheCheckoutDirectory)
{
    const uint64_t here =
        LlpcFromLocation("/home/alice/chef/src/minilua/lua_interp.cc", 453);
    EXPECT_EQ(here,
              LlpcFromLocation("/tmp/build-2/src/minilua/lua_interp.cc", 453));
    EXPECT_EQ(here, LlpcFromLocation("minilua/lua_interp.cc", 453));
    EXPECT_NE(here,
              LlpcFromLocation("/home/alice/chef/src/minipy/lua_interp.cc", 453));
}

TEST(Llpc, TagIsACompileTimeConstant)
{
    constexpr uint64_t kTag = CHEF_LLPC;
    EXPECT_EQ(kTag, LlpcFromLocation("tests/lowlevel_test.cc", __LINE__ - 1));
}

}  // namespace
}  // namespace chef::lowlevel
