/// \file
/// Tests for the Solver facade: caching, model reuse, upper bound search.

#include "solver/solver.h"

#include <gtest/gtest.h>

#include "support/rng.h"

namespace chef::solver {
namespace {

TEST(Solver, EmptyQueryIsSat)
{
    Solver solver;
    Assignment model;
    EXPECT_EQ(solver.Solve({}, &model), QueryResult::kSat);
}

TEST(Solver, TrivialTrueAssertionIsSat)
{
    Solver solver;
    EXPECT_EQ(solver.Solve({MakeBool(true)}, nullptr), QueryResult::kSat);
    EXPECT_EQ(solver.stats().sat_calls, 0u);
}

TEST(Solver, TrivialFalseAssertionIsUnsat)
{
    Solver solver;
    EXPECT_EQ(solver.Solve({MakeBool(false)}, nullptr),
              QueryResult::kUnsat);
    EXPECT_EQ(solver.stats().sat_calls, 0u);
}

TEST(Solver, ModelSatisfiesQuery)
{
    Solver solver;
    const ExprRef x = MakeVar(1, "x", 32);
    const ExprRef y = MakeVar(2, "y", 32);
    const std::vector<ExprRef> assertions = {
        MakeUgt(x, MakeConst(100, 32)),
        MakeUlt(x, MakeConst(110, 32)),
        MakeEq(MakeAdd(x, y), MakeConst(300, 32)),
    };
    Assignment model;
    ASSERT_EQ(solver.Solve(assertions, &model), QueryResult::kSat);
    const uint64_t xv = model.Get(1);
    const uint64_t yv = model.Get(2);
    EXPECT_GT(xv, 100u);
    EXPECT_LT(xv, 110u);
    EXPECT_EQ((xv + yv) & 0xffffffffu, 300u);
}

TEST(Solver, ContradictionIsUnsat)
{
    Solver solver;
    const ExprRef x = MakeVar(1, "x", 8);
    EXPECT_EQ(solver.Solve({MakeUlt(x, MakeConst(5, 8)),
                            MakeUgt(x, MakeConst(10, 8))},
                           nullptr),
              QueryResult::kUnsat);
}

TEST(Solver, QueryCacheHitsOnRepeat)
{
    Solver solver;
    const ExprRef x = MakeVar(1, "x", 16);
    const std::vector<ExprRef> assertions = {
        MakeEq(x, MakeConst(77, 16))};
    Assignment model;
    ASSERT_EQ(solver.Solve(assertions, &model), QueryResult::kSat);
    const uint64_t sat_calls = solver.stats().sat_calls;
    // Structurally identical but freshly constructed assertion.
    const ExprRef x2 = MakeVar(1, "x", 16);
    Assignment model2;
    ASSERT_EQ(solver.Solve({MakeEq(x2, MakeConst(77, 16))}, &model2),
              QueryResult::kSat);
    EXPECT_EQ(solver.stats().sat_calls, sat_calls);
    EXPECT_GE(solver.stats().cache_hits, 1u);
    EXPECT_EQ(model2.Get(1), 77u);
}

TEST(Solver, CacheIsOrderInsensitive)
{
    Solver solver;
    const ExprRef x = MakeVar(1, "x", 16);
    const ExprRef a = MakeUgt(x, MakeConst(10, 16));
    const ExprRef b = MakeUlt(x, MakeConst(20, 16));
    ASSERT_EQ(solver.Solve({a, b}, nullptr), QueryResult::kSat);
    const uint64_t sat_calls = solver.stats().sat_calls;
    ASSERT_EQ(solver.Solve({b, a}, nullptr), QueryResult::kSat);
    EXPECT_EQ(solver.stats().sat_calls, sat_calls);
}

TEST(Solver, ModelReuseAvoidsSatCalls)
{
    Solver solver;
    const ExprRef x = MakeVar(1, "x", 32);
    Assignment model;
    ASSERT_EQ(solver.Solve({MakeUgt(x, MakeConst(50, 32))}, &model),
              QueryResult::kSat);
    const uint64_t sat_calls = solver.stats().sat_calls;
    // A weaker query is satisfied by the cached model without a SAT call.
    ASSERT_EQ(solver.Solve({MakeUgt(x, MakeConst(10, 32))}, nullptr),
              QueryResult::kSat);
    EXPECT_EQ(solver.stats().sat_calls, sat_calls);
    EXPECT_GE(solver.stats().model_reuse_hits, 1u);
}

TEST(Solver, DisablingCacheForcesResolve)
{
    Solver::Options options;
    options.enable_query_cache = false;
    options.enable_model_reuse = false;
    Solver solver(options);
    const ExprRef x = MakeVar(1, "x", 16);
    ASSERT_EQ(solver.Solve({MakeEq(x, MakeConst(5, 16))}, nullptr),
              QueryResult::kSat);
    ASSERT_EQ(solver.Solve({MakeEq(x, MakeConst(5, 16))}, nullptr),
              QueryResult::kSat);
    EXPECT_EQ(solver.stats().sat_calls, 2u);
}

TEST(Solver, RebuiltQueryAddsNoClausesToIncrementalSession)
{
    // Every engine run rebuilds its path condition from new nodes; the
    // incremental session must map the rebuild onto the circuit it
    // already holds instead of loading a second copy.
    Solver::Options options;
    options.enable_query_cache = false;
    options.enable_model_reuse = false;
    Solver solver(options);
    const auto build = [] {
        const ExprRef x = MakeVar(1, "x", 32);
        const ExprRef y = MakeVar(2, "y", 32);
        return std::vector<ExprRef>{
            MakeUlt(MakeAdd(x, MakeConst(17, 32)), y),
            MakeEq(MakeAnd(MakeXor(x, y), MakeConst(0xff, 32)),
                   MakeConst(0x5a, 32)),
        };
    };
    ASSERT_EQ(solver.Solve(build(), nullptr), QueryResult::kSat);
    const uint64_t clauses = solver.stats().cnf_clauses;
    ASSERT_EQ(solver.Solve(build(), nullptr), QueryResult::kSat);
    EXPECT_EQ(solver.stats().incremental_sat_calls, 2u);
    EXPECT_EQ(solver.stats().cnf_clauses, clauses);
}

TEST(Solver, SatStageSecondsSplitByOutcome)
{
    Solver::Options options;
    options.enable_query_cache = false;
    options.enable_model_reuse = false;
    Solver solver(options);
    const ExprRef x = MakeVar(1, "x", 16);
    const ExprRef y = MakeVar(2, "y", 16);
    const ExprRef sum = MakeEq(MakeAdd(x, y), MakeConst(300, 16));
    ASSERT_EQ(solver.Solve({sum, MakeUlt(x, MakeConst(10, 16))}, nullptr),
              QueryResult::kSat);
    EXPECT_GT(solver.stats().blast_seconds, 0.0);
    EXPECT_GT(solver.stats().cdcl_sat_seconds, 0.0);
    EXPECT_EQ(solver.stats().cdcl_unsat_seconds, 0.0);
    // Not a syntactic contradiction, so it reaches CDCL.
    ASSERT_EQ(solver.Solve({sum, MakeUlt(x, MakeConst(10, 16)),
                            MakeUlt(y, MakeConst(200, 16))},
                           nullptr),
              QueryResult::kUnsat);
    EXPECT_GT(solver.stats().cdcl_unsat_seconds, 0.0);
    EXPECT_LE(solver.stats().blast_seconds +
                  solver.stats().cdcl_sat_seconds +
                  solver.stats().cdcl_unsat_seconds,
              solver.stats().solve_seconds);
}

TEST(Solver, TinyLearnedClauseCapKeepsOutcomesCorrect)
{
    // An aggressive purge cap must never change sat/unsat answers — only
    // how much past search effort the persistent session remembers. (64
    // forces several purges on this battery but is not degenerate: caps
    // near zero turn every conflict into a root restart.) The queries are
    // hard in themselves: each round factors a product of two 12-bit
    // primes (sat), then asks for a factor pair of a product of two
    // 10-bit primes that excludes both primes (unsat).
    Solver::Options options;
    options.max_learned_clauses = 64;
    options.enable_query_cache = false;
    options.enable_model_reuse = false;
    Solver capped(options);
    Solver reference;

    const auto factoring = [](uint32_t first_var, int width, uint64_t p,
                              uint64_t q, bool exclude_factors) {
        const ExprRef x = MakeVar(first_var, "x", width);
        const ExprRef y = MakeVar(first_var + 1, "y", width);
        std::vector<ExprRef> assertions = {
            MakeEq(MakeMul(MakeZExt(x, 2 * width), MakeZExt(y, 2 * width)),
                   MakeConst(p * q, 2 * width)),
            MakeUgt(x, MakeConst(1, width)),
            MakeUgt(y, MakeConst(1, width)),
        };
        if (exclude_factors) {
            assertions.push_back(MakeNe(x, MakeConst(p, width)));
            assertions.push_back(MakeNe(x, MakeConst(q, width)));
        }
        return assertions;
    };
    const uint64_t kRounds[][4] = {
        {2003, 2011, 1019, 1021}, {1999, 1997, 1013, 1019},
        {3001, 3011, 1009, 1021}, {2503, 2521, 1009, 1013},
        {1009, 3967, 997, 1019},
    };
    for (const auto& round : kRounds) {
        const std::vector<ExprRef> sat_query =
            factoring(1, 12, round[0], round[1], false);
        const std::vector<ExprRef> unsat_query =
            factoring(3, 10, round[2], round[3], true);
        EXPECT_EQ(reference.Solve(sat_query, nullptr), QueryResult::kSat);
        EXPECT_EQ(reference.Solve(unsat_query, nullptr),
                  QueryResult::kUnsat);
        ASSERT_EQ(capped.Solve(sat_query, nullptr), QueryResult::kSat)
            << round[0] << " * " << round[1];
        ASSERT_EQ(capped.Solve(unsat_query, nullptr), QueryResult::kUnsat)
            << round[2] << " * " << round[3];
    }
    // The capped session really purged (so the equal outcomes above
    // exercised the purge path); the uncapped reference never did.
    EXPECT_GT(capped.stats().learned_clauses_purged, 0u);
    EXPECT_EQ(reference.stats().learned_clauses_purged, 0u);
}

TEST(Solver, UpperBoundExact)
{
    Solver solver;
    const ExprRef x = MakeVar(1, "x", 8);
    uint64_t bound = 0;
    // x < 57 constrains max to 56.
    ASSERT_TRUE(solver.UpperBound({MakeUlt(x, MakeConst(57, 8))}, x,
                                  &bound));
    EXPECT_EQ(bound, 56u);
}

TEST(Solver, UpperBoundUnconstrained)
{
    Solver solver;
    const ExprRef x = MakeVar(1, "x", 8);
    uint64_t bound = 0;
    ASSERT_TRUE(solver.UpperBound({}, x, &bound));
    EXPECT_EQ(bound, 255u);
}

TEST(Solver, UpperBoundOfDerivedExpression)
{
    Solver solver;
    const ExprRef x = MakeVar(1, "x", 8);
    uint64_t bound = 0;
    // max of 2*x for x < 10 is 18 (within 8 bits).
    const ExprRef doubled = MakeMul(x, MakeConst(2, 8));
    ASSERT_TRUE(solver.UpperBound({MakeUlt(x, MakeConst(10, 8))}, doubled,
                                  &bound));
    EXPECT_EQ(bound, 18u);
}

TEST(Solver, UpperBoundUnsatAssertions)
{
    Solver solver;
    const ExprRef x = MakeVar(1, "x", 8);
    uint64_t bound = 0;
    EXPECT_FALSE(solver.UpperBound({MakeBool(false)}, x, &bound));

    // A non-trivially unsat assertion set also reports failure (and
    // leaves the output untouched).
    bound = 99;
    EXPECT_FALSE(solver.UpperBound({MakeUlt(x, MakeConst(5, 8)),
                                    MakeUgt(x, MakeConst(10, 8))},
                                   x, &bound));
    EXPECT_EQ(bound, 99u);
}

TEST(Solver, UpperBoundBinarySearchPopulatesQueryCache)
{
    // The binary search issues one query per probe; repeating the same
    // UpperBound call must answer every probe from the query cache.
    Solver solver;
    const ExprRef x = MakeVar(1, "x", 8);
    uint64_t bound = 0;
    ASSERT_TRUE(solver.UpperBound({MakeUlt(x, MakeConst(57, 8))}, x,
                                  &bound));
    EXPECT_EQ(bound, 56u);
    const uint64_t sat_calls = solver.stats().sat_calls;
    const uint64_t cache_hits = solver.stats().cache_hits;

    uint64_t bound_again = 0;
    ASSERT_TRUE(solver.UpperBound({MakeUlt(x, MakeConst(57, 8))}, x,
                                  &bound_again));
    EXPECT_EQ(bound_again, 56u);
    EXPECT_EQ(solver.stats().sat_calls, sat_calls);
    EXPECT_GT(solver.stats().cache_hits, cache_hits);
}

TEST(Solver, UpperBoundWithCacheDisabledStillExact)
{
    Solver::Options options;
    options.enable_query_cache = false;
    options.enable_model_reuse = false;
    Solver solver(options);
    const ExprRef x = MakeVar(1, "x", 8);
    uint64_t bound = 0;
    ASSERT_TRUE(solver.UpperBound({MakeUlt(x, MakeConst(57, 8))}, x,
                                  &bound));
    EXPECT_EQ(bound, 56u);
    EXPECT_EQ(solver.stats().cache_hits, 0u);
    EXPECT_EQ(solver.stats().cache_bytes, 0u);
}

TEST(Solver, CacheBytesGaugeTracksInsertsAndSkipsUnsatModels)
{
    Solver solver;
    EXPECT_EQ(solver.stats().cache_bytes, 0u);

    const ExprRef x = MakeVar(1, "x", 16);
    ASSERT_EQ(solver.Solve({MakeEq(x, MakeConst(5, 16))}, nullptr),
              QueryResult::kSat);
    const uint64_t after_sat = solver.stats().cache_bytes;
    EXPECT_GT(after_sat, 0u);

    // An unsat entry stores no model: despite holding *two* assertions
    // to the sat entry's one, it must not cost more than the sat entry
    // plus one assertion ref (it would if the model were also stored).
    ASSERT_EQ(solver.Solve({MakeUlt(x, MakeConst(5, 16)),
                            MakeUgt(x, MakeConst(10, 16))},
                           nullptr),
              QueryResult::kUnsat);
    const uint64_t unsat_entry = solver.stats().cache_bytes - after_sat;
    EXPECT_GT(unsat_entry, 0u);
    EXPECT_LE(unsat_entry, after_sat + sizeof(ExprRef));

    // A cache hit does not grow the gauge.
    ASSERT_EQ(solver.Solve({MakeEq(x, MakeConst(5, 16))}, nullptr),
              QueryResult::kSat);
    EXPECT_EQ(solver.stats().cache_bytes, after_sat + unsat_entry);
    EXPECT_GT(solver.stats().solve_seconds, 0.0);
}

TEST(Solver, LocalCacheEvictsLruBeyondByteBudget)
{
    Solver::Options options;
    // Tiny budget: a handful of entries at most.
    options.max_cache_bytes = 600;
    options.enable_model_reuse = false;  // Force distinct cache inserts.
    Solver solver(options);

    const ExprRef x = MakeVar(1, "x", 16);
    ASSERT_EQ(solver.Solve({MakeEq(x, MakeConst(0, 16))}, nullptr),
              QueryResult::kSat);
    const uint64_t one_entry = solver.stats().cache_bytes;
    ASSERT_GT(one_entry, 0u);

    uint64_t peak = 0;
    for (uint64_t v = 1; v < 40; ++v) {
        ASSERT_EQ(solver.Solve({MakeEq(x, MakeConst(v, 16))}, nullptr),
                  QueryResult::kSat);
        peak = std::max(peak, solver.stats().cache_bytes);
        // The gauge respects the budget at every step.
        EXPECT_LE(solver.stats().cache_bytes, options.max_cache_bytes);
    }
    EXPECT_GT(solver.stats().cache_evictions, 0u);
    // The gauge went *down* on eviction: at some point it held more than
    // it would after evicting one entry.
    EXPECT_LE(solver.stats().cache_bytes, peak);
    EXPECT_GE(peak, one_entry * 2);

    // Evicted (oldest) entries re-solve; the most recent still hits.
    const uint64_t hits = solver.stats().cache_hits;
    ASSERT_EQ(solver.Solve({MakeEq(x, MakeConst(39, 16))}, nullptr),
              QueryResult::kSat);
    EXPECT_EQ(solver.stats().cache_hits, hits + 1);
    const uint64_t sat_calls = solver.stats().sat_calls;
    ASSERT_EQ(solver.Solve({MakeEq(x, MakeConst(0, 16))}, nullptr),
              QueryResult::kSat);
    EXPECT_EQ(solver.stats().sat_calls, sat_calls + 1);
}

TEST(Solver, SyntacticContradictionShortCircuitsBothOrientations)
{
    const ExprRef x = MakeVar(1, "x", 8);
    const ExprRef c = MakeUlt(x, MakeConst(5, 8));

    // Plain condition in the prefix, negation last.
    {
        Solver solver;
        EXPECT_EQ(solver.Solve({c, MakeBool(true), MakeBoolNot(c)},
                               nullptr),
                  QueryResult::kUnsat);
        EXPECT_EQ(solver.stats().sat_calls, 0u);
    }
    // Negation in the prefix, plain condition last.
    {
        Solver solver;
        EXPECT_EQ(solver.Solve({MakeBoolNot(c), c}, nullptr),
                  QueryResult::kUnsat);
        EXPECT_EQ(solver.stats().sat_calls, 0u);
    }
}

TEST(Solver, DisablingSlicingAndIncrementalStillSolves)
{
    Solver::Options options;
    options.enable_independence_slicing = false;
    options.enable_incremental_sat = false;
    Solver solver(options);
    const ExprRef x = MakeVar(1, "x", 8);
    Assignment model;
    ASSERT_EQ(solver.Solve({MakeEq(x, MakeConst(9, 8)),
                            MakeEq(MakeVar(2, "y", 8), MakeConst(4, 8))},
                           &model),
              QueryResult::kSat);
    EXPECT_EQ(model.Get(1), 9u);
    EXPECT_EQ(model.Get(2), 4u);
    EXPECT_EQ(solver.stats().sliced_queries, 0u);
    EXPECT_EQ(solver.stats().incremental_sat_calls, 0u);
}

/// Property: for random interval constraints, the model returned lies in
/// the interval and UpperBound returns the interval's top.
class SolverIntervalProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverIntervalProperty, ModelsRespectIntervals)
{
    Rng rng(GetParam());
    Solver solver;
    for (int round = 0; round < 10; ++round) {
        const uint64_t lo = rng.NextBelow(200);
        const uint64_t hi = lo + 1 + rng.NextBelow(55);
        const ExprRef x = MakeVar(1, "x", 8);
        const std::vector<ExprRef> assertions = {
            MakeUge(x, MakeConst(lo, 8)), MakeUle(x, MakeConst(hi, 8))};
        Assignment model;
        ASSERT_EQ(solver.Solve(assertions, &model), QueryResult::kSat);
        EXPECT_GE(model.Get(1), lo);
        EXPECT_LE(model.Get(1), hi);
        uint64_t bound = 0;
        ASSERT_TRUE(solver.UpperBound(assertions, x, &bound));
        EXPECT_EQ(bound, std::min<uint64_t>(hi, 255));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverIntervalProperty,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace chef::solver
