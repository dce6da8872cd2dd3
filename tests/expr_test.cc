/// \file
/// Unit and property tests for the expression DAG and constant folder.

#include "solver/expr.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "solver/solver.h"
#include "support/rng.h"

namespace chef::solver {
namespace {

TEST(ExprBasics, ConstantsAreMaskedToWidth)
{
    EXPECT_EQ(MakeConst(0x1ff, 8)->constant_value(), 0xffu);
    EXPECT_EQ(MakeConst(~0ull, 64)->constant_value(), ~0ull);
    EXPECT_EQ(MakeConst(2, 1)->constant_value(), 0u);
}

TEST(ExprBasics, WidthMask)
{
    EXPECT_EQ(WidthMask(1), 1u);
    EXPECT_EQ(WidthMask(8), 0xffu);
    EXPECT_EQ(WidthMask(64), ~0ull);
}

TEST(ExprBasics, SignExtend)
{
    EXPECT_EQ(SignExtend(0x80, 8), -128);
    EXPECT_EQ(SignExtend(0x7f, 8), 127);
    EXPECT_EQ(SignExtend(1, 1), -1);
    EXPECT_EQ(SignExtend(~0ull, 64), -1);
}

TEST(ExprFolding, ArithmeticIdentities)
{
    const ExprRef x = MakeVar(1, "x", 32);
    const ExprRef zero = MakeConst(0, 32);
    const ExprRef one = MakeConst(1, 32);

    EXPECT_EQ(MakeAdd(x, zero).get(), x.get());
    EXPECT_EQ(MakeSub(x, zero).get(), x.get());
    EXPECT_TRUE(MakeSub(x, x)->IsConstant());
    EXPECT_EQ(MakeMul(x, one).get(), x.get());
    EXPECT_TRUE(MakeMul(x, zero)->IsConstant());
    EXPECT_EQ(MakeXor(x, zero).get(), x.get());
    EXPECT_TRUE(MakeXor(x, x)->IsConstant());
    EXPECT_EQ(MakeAnd(x, MakeConst(~0u, 32)).get(), x.get());
    EXPECT_EQ(MakeOr(x, zero).get(), x.get());
}

TEST(ExprFolding, ComparisonsOnConstants)
{
    EXPECT_TRUE(MakeUlt(MakeConst(3, 8), MakeConst(5, 8))->IsTrue());
    EXPECT_TRUE(MakeUlt(MakeConst(5, 8), MakeConst(3, 8))->IsFalse());
    EXPECT_TRUE(MakeSlt(MakeConst(0xff, 8), MakeConst(0, 8))->IsTrue());
    EXPECT_TRUE(MakeSle(MakeConst(0x80, 8), MakeConst(0x7f, 8))->IsTrue());
    EXPECT_TRUE(MakeEq(MakeConst(7, 16), MakeConst(7, 16))->IsTrue());
}

TEST(ExprFolding, SelfComparisons)
{
    const ExprRef x = MakeVar(1, "x", 32);
    EXPECT_TRUE(MakeEq(x, x)->IsTrue());
    EXPECT_TRUE(MakeUlt(x, x)->IsFalse());
    EXPECT_TRUE(MakeUle(x, x)->IsTrue());
    EXPECT_TRUE(MakeSlt(x, x)->IsFalse());
    EXPECT_TRUE(MakeSle(x, x)->IsTrue());
}

TEST(ExprFolding, DoubleNegationCancels)
{
    const ExprRef x = MakeVar(1, "x", 1);
    EXPECT_EQ(MakeBoolNot(MakeBoolNot(x)).get(), x.get());
}

TEST(ExprFolding, IteWithConstantCondition)
{
    const ExprRef x = MakeVar(1, "x", 8);
    const ExprRef y = MakeVar(2, "y", 8);
    EXPECT_EQ(MakeIte(MakeBool(true), x, y).get(), x.get());
    EXPECT_EQ(MakeIte(MakeBool(false), x, y).get(), y.get());
    EXPECT_EQ(MakeIte(MakeVar(3, "c", 1), x, x).get(), x.get());
}

TEST(ExprFolding, BooleanIteCollapsesToCondition)
{
    const ExprRef c = MakeVar(1, "c", 1);
    EXPECT_EQ(MakeIte(c, MakeBool(true), MakeBool(false)).get(), c.get());
    const ExprRef negated = MakeIte(c, MakeBool(false), MakeBool(true));
    EXPECT_EQ(negated->kind(), ExprKind::kNot);
    EXPECT_EQ(negated->a().get(), c.get());
}

TEST(ExprFolding, ExtractThroughConcat)
{
    const ExprRef high = MakeVar(1, "h", 8);
    const ExprRef low = MakeVar(2, "l", 8);
    const ExprRef concat = MakeConcat(high, low);
    EXPECT_EQ(MakeExtract(concat, 0, 8).get(), low.get());
    EXPECT_EQ(MakeExtract(concat, 8, 8).get(), high.get());
}

TEST(ExprFolding, ExtractOfExtract)
{
    const ExprRef x = MakeVar(1, "x", 32);
    const ExprRef inner = MakeExtract(x, 8, 16);
    const ExprRef outer = MakeExtract(inner, 4, 8);
    EXPECT_EQ(outer->kind(), ExprKind::kExtract);
    EXPECT_EQ(outer->extract_offset(), 12);
    EXPECT_EQ(outer->a().get(), x.get());
}

TEST(ExprFolding, DivisionSmtSemantics)
{
    // x udiv 0 = all-ones; x urem 0 = x.
    EXPECT_EQ(MakeUDiv(MakeConst(5, 8), MakeConst(0, 8))->constant_value(),
              0xffu);
    EXPECT_EQ(MakeURem(MakeConst(5, 8), MakeConst(0, 8))->constant_value(),
              5u);
    // Signed division truncates toward zero.
    EXPECT_EQ(MakeSDiv(MakeConst(0xf9, 8), MakeConst(2, 8))  // -7 / 2
                  ->constant_value(),
              0xfdu);  // -3
    EXPECT_EQ(MakeSRem(MakeConst(0xf9, 8), MakeConst(2, 8))  // -7 % 2
                  ->constant_value(),
              0xffu);  // -1
}

TEST(ExprEquality, StructuralEqualityIgnoresNodeIdentity)
{
    const ExprRef x1 = MakeVar(1, "x", 32);
    const ExprRef x2 = MakeVar(1, "x", 32);
    const ExprRef e1 = MakeAdd(x1, MakeConst(3, 32));
    const ExprRef e2 = MakeAdd(x2, MakeConst(3, 32));
    EXPECT_TRUE(Expr::Equal(e1, e2));
    EXPECT_EQ(e1->hash(), e2->hash());
    const ExprRef e3 = MakeAdd(x1, MakeConst(4, 32));
    EXPECT_FALSE(Expr::Equal(e1, e3));
}

TEST(ExprEval, EvaluatesUnderAssignment)
{
    const ExprRef x = MakeVar(1, "x", 32);
    const ExprRef y = MakeVar(2, "y", 32);
    const ExprRef e =
        MakeAdd(MakeMul(x, MakeConst(3, 32)), y);  // 3x + y
    Assignment assignment;
    assignment.Set(1, 10);
    assignment.Set(2, 7);
    EXPECT_EQ(EvalConcrete(e, assignment), 37u);
    const ExprRef cmp = MakeUgt(e, MakeConst(36, 32));
    EXPECT_EQ(EvalConcrete(cmp, assignment), 1u);
}

TEST(ExprEval, UnassignedVariablesAreZero)
{
    const ExprRef x = MakeVar(9, "x", 16);
    Assignment assignment;
    EXPECT_EQ(EvalConcrete(x, assignment), 0u);
}

TEST(ExprVariables, CollectsDistinctVariables)
{
    const ExprRef x = MakeVar(1, "x", 8);
    const ExprRef y = MakeVar(2, "y", 8);
    const ExprRef e = MakeAdd(MakeXor(x, y), x);
    std::vector<ExprRef> vars;
    CollectVariables(e, &vars);
    EXPECT_EQ(vars.size(), 2u);
}

/// Property test: folding must agree with EvalConcrete on random constant
/// operands for every binary operator.
class FoldEvalAgreement : public ::testing::TestWithParam<int> {};

TEST_P(FoldEvalAgreement, BinaryOpsOnConstants)
{
    const int width = GetParam();
    Rng rng(width * 1234567u);
    const Assignment empty;
    using Maker = ExprRef (*)(const ExprRef&, const ExprRef&);
    const Maker makers[] = {
        MakeAdd, MakeSub, MakeMul, MakeUDiv, MakeSDiv, MakeURem, MakeSRem,
        MakeAnd, MakeOr,  MakeXor, MakeShl,  MakeLShr, MakeAShr,
        MakeEq,  MakeUlt, MakeUle, MakeSlt,  MakeSle,
    };
    for (int round = 0; round < 200; ++round) {
        const uint64_t av = rng.Next() & WidthMask(width);
        const uint64_t bv = rng.Next() & WidthMask(width);
        for (const Maker make : makers) {
            const ExprRef folded =
                make(MakeConst(av, width), MakeConst(bv, width));
            ASSERT_TRUE(folded->IsConstant());
            // Folding and evaluation must produce the same value when the
            // same operator is applied to variables bound to the operands.
            const ExprRef xa = MakeVar(1, "a", width);
            const ExprRef xb = MakeVar(2, "b", width);
            Assignment assignment;
            assignment.Set(1, av);
            assignment.Set(2, bv);
            const ExprRef symbolic = make(xa, xb);
            EXPECT_EQ(folded->constant_value(),
                      EvalConcrete(symbolic, assignment))
                << "width=" << width << " op mismatch with a=" << av
                << " b=" << bv;
        }
    }
    (void)empty;
}

INSTANTIATE_TEST_SUITE_P(Widths, FoldEvalAgreement,
                         ::testing::Values(1, 7, 8, 16, 32, 33, 64));

// ---------------------------------------------------------------------------
// Interval summaries and the folds they decide.

/// Builds a node with the raw constructor, bypassing every factory fold.
ExprRef
Raw(ExprKind kind, int width, ExprRef a, ExprRef b = nullptr,
    ExprRef c = nullptr, int extract_offset = 0)
{
    return std::make_shared<Expr>(kind, width, 0, 0, std::string(),
                                  extract_offset, std::move(a), std::move(b),
                                  std::move(c));
}

/// data[i] zero-extended to 64 bits, as the interpreters load input bytes.
ExprRef
DataByte(uint32_t i)
{
    return MakeZExt(MakeVar(i, "data" + std::to_string(i), 8), 64);
}

ExprRef
Const64(uint64_t value)
{
    return MakeConst(value, 64);
}

TEST(ExprInterval, LeavesAndSums)
{
    const ExprRef x = MakeVar(1, "x", 8);
    EXPECT_EQ(x->lo(), 0u);
    EXPECT_EQ(x->hi(), 0xffu);
    const ExprRef c = MakeConst(0x1234, 16);
    EXPECT_EQ(c->lo(), 0x1234u);
    EXPECT_EQ(c->hi(), 0x1234u);
    const ExprRef sum = MakeAdd(MakeAdd(Const64(4), DataByte(3)), Const64(2));
    EXPECT_EQ(sum->lo(), 6u);
    EXPECT_EQ(sum->hi(), 261u);
}

TEST(ExprInterval, WrappingSumWidensToFullRange)
{
    // x + 5 over 8 bits wraps for x >= 251: both ends are reachable.
    const ExprRef sum = MakeAdd(MakeVar(1, "x", 8), MakeConst(5, 8));
    EXPECT_EQ(sum->lo(), 0u);
    EXPECT_EQ(sum->hi(), 0xffu);
    EXPECT_FALSE(MakeUlt(sum, MakeConst(5, 8))->IsConstant());
    // zext(x) - 1 over 64 bits wraps at x == 0, so its sign is open.
    const ExprRef pred = MakeAdd(DataByte(1), Const64(~0ull));
    EXPECT_EQ(pred->lo(), 0u);
    EXPECT_EQ(pred->hi(), ~0ull);
    EXPECT_FALSE(MakeSlt(pred, Const64(0))->IsConstant());
}

TEST(ExprInterval, SumThatAlwaysWrapsStaysExact)
{
    // zext(x) + (2^64 - 300) never reaches 2^64: every value is negative.
    const ExprRef shifted = MakeAdd(DataByte(1), Const64(-300ull));
    EXPECT_EQ(shifted->lo(), -300ull);
    EXPECT_EQ(shifted->hi(), -45ull);
    EXPECT_TRUE(MakeSlt(shifted, Const64(0))->IsTrue());
    // Adding 400 pushes every value past 2^64 exactly once.
    const ExprRef wrapped = MakeAdd(shifted, Const64(400));
    EXPECT_EQ(wrapped->lo(), 100u);
    EXPECT_EQ(wrapped->hi(), 355u);
}

TEST(ExprInterval, ShiftThatLosesHighBitsWidensToFullRange)
{
    // (x >> 1) | 2^61 lies in [2^61, 2^63 - 1]; shifting it left by two
    // drops bit 62 for some values (2^62 << 2 wraps to 0).
    const ExprRef high = MakeOr(MakeLShr(MakeVar(1, "x", 64), Const64(1)),
                                Const64(1ull << 61));
    EXPECT_EQ(high->lo(), 1ull << 61);
    const ExprRef shifted = MakeShl(high, Const64(2));
    EXPECT_EQ(shifted->lo(), 0u);
    EXPECT_EQ(shifted->hi(), ~0ull);
    // Without a lost bit the shift is exact.
    const ExprRef small = MakeShl(DataByte(1), Const64(4));
    EXPECT_EQ(small->lo(), 0u);
    EXPECT_EQ(small->hi(), 0xff0u);
}

/// The four conditions dumped at the busiest infeasible fork sites on the
/// solver-bound benchmark mix: each is decided by intervals alone.
TEST(ExprInterval, FoldsDumpedInfeasibleBranchConditions)
{
    const ExprRef sum = MakeAdd(Const64(4), DataByte(3));
    // Negative-index check on a sequence index.
    EXPECT_TRUE(MakeSlt(MakeAdd(sum, Const64(2)), Const64(0))->IsFalse());
    // The bignum digit-count loop's threshold test.
    EXPECT_TRUE(MakeUle(Const64(32768), MakeAdd(sum, Const64(2)))->IsFalse());
    // The index-resolution scan below the sum's minimum.
    EXPECT_TRUE(MakeEq(sum, Const64(3))->IsFalse());
    // A bounds check whose two halves contradict.
    const ExprRef byte = DataByte(4);
    EXPECT_TRUE(MakeSle(Const64(0), byte)->IsTrue());
    EXPECT_TRUE(MakeSlt(byte, Const64(0))->IsFalse());
    EXPECT_TRUE(MakeBoolAnd(MakeSle(Const64(0), byte),
                            MakeSlt(byte, Const64(0)))
                    ->IsFalse());
}

TEST(ExprInterval, SignedComparisonNeedsOneSignPerOperand)
{
    // sext(x) takes values on both sides of the sign bit, so its unsigned
    // interval says nothing about its signed order.
    const ExprRef wide = MakeSExt(MakeVar(1, "x", 8), 32);
    EXPECT_FALSE(MakeSlt(wide, MakeConst(200, 32))->IsConstant());
    // Its non-negative half folds.
    const ExprRef low = MakeAnd(wide, MakeConst(0x7f, 32));
    EXPECT_TRUE(MakeSlt(low, MakeConst(128, 32))->IsTrue());
    // A value confined to the negative half is below every non-negative.
    const ExprRef negative = MakeOr(wide, MakeConst(0x80000000u, 32));
    EXPECT_TRUE(MakeSlt(negative, MakeConst(0, 32))->IsTrue());
}

/// Draws operand values that favour the boundaries where wrap-around and
/// sign handling go wrong.
uint64_t
EdgyValue(Rng& rng, int width)
{
    const uint64_t mask = WidthMask(width);
    const uint64_t sign = 1ull << (width - 1);
    switch (rng.NextBelow(8)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return mask;
      case 3: return mask - 1;
      case 4: return sign;
      case 5: return sign - 1;
      case 6: return rng.NextBelow(300) & mask;
      default: return rng.Next() & mask;
    }
}

/// Random DAGs over variables of widths 1/8/16/32/64 and every node kind.
/// Checks that each node's interval contains its value under random
/// assignments, and that each comparison the factories folded agrees with
/// EvalConcrete and, for a sample, with the full solver on the unfolded
/// node.
class IntervalFoldGuard : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalFoldGuard, RandomDagsRespectIntervalsAndFolds)
{
    Rng rng(GetParam());
    const int kWidths[] = {1, 8, 16, 32, 64};
    std::map<int, std::vector<ExprRef>> pool;
    uint32_t next_var = 1;
    for (const int width : kWidths) {
        for (int i = 0; i < 2; ++i) {
            pool[width].push_back(MakeVar(next_var, "v" +
                                          std::to_string(next_var), width));
            ++next_var;
        }
        pool[width].push_back(MakeConst(EdgyValue(rng, width), width));
    }
    auto pick = [&](int width) -> const ExprRef& {
        const std::vector<ExprRef>& nodes = pool[width];
        return nodes[rng.NextBelow(nodes.size())];
    };
    auto pick_width = [&] { return kWidths[rng.NextBelow(5)]; };

    struct Folded {
        ExprRef raw;
        uint64_t value;
    };
    std::vector<Folded> folds;
    std::vector<ExprRef> nodes;
    for (int step = 0; step < 600; ++step) {
        const int width = pick_width();
        ExprRef node;
        ExprRef raw;  // Set for comparisons: the unfolded node.
        switch (rng.NextBelow(12)) {
          case 0: {
            // Unary: not, neg.
            node = rng.Chance(0.5) ? MakeNot(pick(width))
                                   : MakeNeg(pick(width));
            break;
          }
          case 1: {
            // Extensions from a narrower width.
            const int from = kWidths[rng.NextBelow(4)];
            const int to = std::max(from, pick_width());
            node = rng.Chance(0.5) ? MakeZExt(pick(from), to)
                                   : MakeSExt(pick(from), to);
            break;
          }
          case 2: {
            const int from = std::max(width, pick_width());
            const int offset =
                static_cast<int>(rng.NextBelow(from - width + 1));
            node = MakeExtract(pick(from), offset, width);
            break;
          }
          case 3: {
            if (width == 1 || width == 8) {
                node = MakeConcat(pick(8), pick(8));
            } else {
                node = MakeConcat(pick(width / 2), pick(width / 2));
            }
            break;
          }
          case 4: case 5: case 6: {
            using Maker = ExprRef (*)(const ExprRef&, const ExprRef&);
            const Maker makers[] = {
                MakeAdd, MakeSub,  MakeMul,  MakeUDiv, MakeSDiv,
                MakeURem, MakeSRem, MakeAnd, MakeOr,   MakeXor,
                MakeShl, MakeLShr, MakeAShr,
            };
            const ExprRef& a = pick(width);
            // Small constants keep shifts and divisors interesting.
            const ExprRef b =
                rng.Chance(0.3)
                    ? MakeConst(rng.NextBelow(width + 2), width)
                    : pick(width);
            node = makers[rng.NextBelow(std::size(makers))](a, b);
            break;
          }
          case 7: {
            node = MakeIte(pick(1), pick(width), pick(width));
            break;
          }
          default: {
            const ExprKind kinds[] = {ExprKind::kEq, ExprKind::kUlt,
                                      ExprKind::kUle, ExprKind::kSlt,
                                      ExprKind::kSle};
            using Maker = ExprRef (*)(const ExprRef&, const ExprRef&);
            const Maker makers[] = {MakeEq, MakeUlt, MakeUle, MakeSlt,
                                    MakeSle};
            const size_t which = rng.NextBelow(5);
            const ExprRef& a = pick(width);
            const ExprRef b = rng.Chance(0.5)
                                  ? MakeConst(EdgyValue(rng, width), width)
                                  : pick(width);
            node = makers[which](a, b);
            raw = Raw(kinds[which], 1, a, b);
            if (node->IsConstant() && !(a->IsConstant() && b->IsConstant())) {
                folds.push_back({raw, node->constant_value()});
            }
            break;
          }
        }
        ASSERT_LE(node->lo(), node->hi()) << node->ToString();
        ASSERT_LE(node->hi(), WidthMask(node->width())) << node->ToString();
        if (!node->IsConstant()) {
            EXPECT_LT(node->lo(), node->hi()) << node->ToString();
        }
        nodes.push_back(node);
        pool[node->width()].push_back(node);
    }

    for (int round = 0; round < 400; ++round) {
        Assignment assignment;
        for (const int width : kWidths) {
            for (const ExprRef& leaf : pool[width]) {
                if (leaf->kind() == ExprKind::kVariable) {
                    assignment.Set(leaf->var_id(), EdgyValue(rng, width));
                }
            }
        }
        for (const ExprRef& node : nodes) {
            const uint64_t value = EvalConcrete(node, assignment);
            ASSERT_TRUE(node->lo() <= value && value <= node->hi())
                << node->ToString() << " = " << value << " outside ["
                << node->lo() << ", " << node->hi() << "]";
        }
        for (const Folded& fold : folds) {
            ASSERT_EQ(EvalConcrete(fold.raw, assignment), fold.value)
                << fold.raw->ToString();
        }
    }

    // The solver sees the unfolded comparison: raw != folded must have no
    // model. The query is built raw too, so no factory folds it away.
    ASSERT_FALSE(folds.empty());
    Solver solver;
    for (size_t i = 0; i < folds.size() && i < 40; ++i) {
        const Folded& fold = folds[i];
        const ExprRef differs =
            Raw(ExprKind::kNot, 1,
                Raw(ExprKind::kEq, 1, fold.raw, MakeBool(fold.value != 0)));
        EXPECT_EQ(solver.Solve({differs}, nullptr), QueryResult::kUnsat)
            << fold.raw->ToString() << " folded to " << fold.value;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalFoldGuard,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace chef::solver
