// The repo benchmark: one closed-loop workload per process.
//
//   chef_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <path>]
//
// A run warms up on batch 0 (each repetition on a fresh service), sets a
// service up several times (setup_s), then submits batches generated from
// the seed — the next batch only after the previous RunBatch call returns
// — until the batch calls have taken --seconds. Afterwards it checks the
// outputs: every job completed, every corpus entry replays concretely to
// its recorded outcome, and on deterministic workloads batch 0 found the
// same fingerprint set every time. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones (perfbench/LAYERS.md
// defines them all).
//
// The benchmark only drives public entry points — ExplorationService::
// RunBatch, the workload registry and ReplayPy/ReplayLua — and times calls
// into them from outside. A traced run registers wrapper workloads that
// delegate to the originals to time make_run and every guest RunFn call;
// all other per-layer numbers come from the stats the program already
// returns.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "chef/engine.h"
#include "service/corpus.h"
#include "service/job.h"
#include "service/service.h"
#include "workloads/packages.h"
#include "workloads/registry.h"

namespace {

using chef::Engine;
using chef::StrategyKind;
using chef::service::ExplorationService;
using chef::service::JobEvent;
using chef::service::JobResult;
using chef::service::JobSpec;
using chef::service::JobStatus;
using chef::service::ServiceStats;
using chef::service::TestCorpus;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

double
SecondsSince(Clock::time_point start, Clock::time_point end = Clock::now())
{
    return std::chrono::duration<double>(end - start).count();
}

double
Now()
{
    return SecondsSince(g_process_start);
}

uint64_t
Mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
Quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(values.size() - 1, lo + 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
Ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------------
// Workloads. Every plan is closed loop with one client; per-job work is
// bounded by max_runs (never by wall clock), so a job's session depends only
// on its seed.

struct JobMix {
    const char* workload;
    uint64_t max_runs;
    uint64_t max_steps_per_run;
};

struct Plan {
    const char* name;
    /// Service workers; every session runs on one thread.
    size_t workers;
    bool share_cache;
    /// Alternate cupa-path / cupa-coverage by copy (else cupa-path only).
    bool mixed_strategies;
    /// Run-bounded with no shared cache: the fingerprint set of a batch is
    /// a pure function of its specs, so reruns must match exactly.
    bool deterministic;
    size_t copies;
    /// The fixed run budget hl_paths is counted at: distinct keys after
    /// this many batches (the window runs at least this long).
    size_t budget_batches;
    std::vector<JobMix> mix;
};

const std::vector<Plan>&
Plans()
{
    static const std::vector<Plan> plans = {
        // Solver-bound sessions: the solver takes most of the engine
        // time (py/xlrd above 85%). Many short jobs per batch, so no
        // single straggler sets the batch wall time.
        {"solver-heavy", 4, false, false, true, 48, 12,
         {{"py/xlrd", 30, 200'000},
          {"lua/moonscript", 40, 200'000},
          {"py/ConfigParser", 40, 200'000}}},
        // Interpreter-bound sessions, one at a time: guest runs take most
        // of the session time. lua/JSON runs hunt hangs and end at the
        // step budget. (Deterministic round mode with 2 or 4 exploration
        // threads was tried first: every round barrier waits for the
        // slowest vCPU, and on a shared VM run-to-run throughput spread
        // by 30% and more.)
        {"interp-heavy", 1, false, false, true, 16, 8,
         {{"lua/JSON", 20, 20'000},
          {"py/unicodecsv", 80, 200'000},
          {"lua/haml", 80, 200'000},
          {"py/simplejson", 80, 200'000}}},
        // Short sessions of every workload but lua/JSON, batch after batch
        // on one service with the batch-shared solver cache on: dispatch,
        // scheduler, corpus and shared-cache reads dominate.
        {"repeat-batches", 4, true, true, false, 6, 100,
         {{"py/argparse", 20, 200'000},
          {"py/ConfigParser", 20, 200'000},
          {"py/HTMLParser", 20, 200'000},
          {"py/simplejson", 20, 200'000},
          {"py/unicodecsv", 20, 200'000},
          {"py/xlrd", 20, 200'000},
          {"lua/cliargs", 20, 200'000},
          {"lua/haml", 20, 200'000},
          {"lua/markdown", 20, 200'000},
          {"lua/moonscript", 20, 200'000}}},
    };
    return plans;
}

const Plan*
FindPlan(const std::string& name)
{
    for (const Plan& plan : Plans()) {
        if (name == plan.name) {
            return &plan;
        }
    }
    return nullptr;
}

/// Prefix of the wrapper workloads a traced run registers.
const std::string kTracedPrefix = "perfbench/";

std::string
OriginalId(const std::string& id)
{
    return id.compare(0, kTracedPrefix.size(), kTracedPrefix) == 0
               ? id.substr(kTracedPrefix.size())
               : id;
}

thread_local int64_t t_current_job = -1;

/// Batch `batch` of a plan: the mix repeated `copies` times, copy-major,
/// with seeds from (seed, batch, job index).
std::vector<JobSpec>
MakeBatch(const Plan& plan, uint64_t seed, size_t batch, bool traced)
{
    const size_t size = plan.copies * plan.mix.size();
    std::vector<JobSpec> jobs;
    jobs.reserve(size);
    for (size_t index = 0; index < size; ++index) {
        const JobMix& mix = plan.mix[index % plan.mix.size()];
        const size_t copy = index / plan.mix.size();
        JobSpec spec;
        spec.workload = (traced ? kTracedPrefix : "") + mix.workload;
        spec.label = mix.workload;
        spec.options.max_runs = mix.max_runs;
        spec.options.max_seconds = 1e9;
        spec.options.max_steps_per_run = mix.max_steps_per_run;
        spec.options.strategy =
            plan.mixed_strategies && copy % 2 == 1
                ? StrategyKind::kCupaCoverage
                : StrategyKind::kCupaPath;
        spec.seed = Mix(Mix(seed) ^ Mix(batch * 1000003 + index)) | 1;
        if (traced) {
            // Tags the engine thread of this job just before each guest
            // run, so the RunFn wrapper can name its job. The hook is
            // polled on the thread about to run, in serial and round mode
            // alike.
            const int64_t job = static_cast<int64_t>(index);
            spec.options.stop_requested = [job] {
                t_current_job = job;
                return false;
            };
        }
        jobs.push_back(std::move(spec));
    }
    return jobs;
}

// ---------------------------------------------------------------------------
// Tracing: in-memory spans, written out when the run ends.

enum SpanKind : uint8_t { kBatch, kJob, kMakeRun, kGuestRun, kReplay };

const char* const kSpanNames[] = {"batch", "job", "make_run", "guest_run",
                                  "replay"};

constexpr uint8_t kFlagLua = 1;
constexpr uint8_t kFlagHang = 2;

struct Span {
    SpanKind kind = kBatch;
    uint8_t flags = 0;
    uint32_t batch = 0;
    /// Job index within the batch; -1 when unknown.
    int64_t request = -1;
    /// make_run / guest_run: the session (one make_run call) they belong
    /// to; lets make_run spans inherit the job index their runs saw.
    int64_t session = -1;
    double start = 0.0;
    double end = 0.0;
};

class SpanLog
{
  public:
    void Add(const Span& span) { Buffer().push_back(span); }

    /// A new session id; its job index is learned by its first guest run.
    int64_t NewSession()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        session_jobs_.push_back(-1);
        return static_cast<int64_t>(session_jobs_.size() - 1);
    }

    void BindSession(int64_t session, int64_t job)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (session_jobs_[session] < 0) {
            session_jobs_[session] = job;
        }
    }

    /// All spans, with make_run requests resolved. Call once every
    /// recording thread is idle.
    std::vector<Span> Collect()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<Span> spans;
        for (const std::vector<Span>& buffer : buffers_) {
            spans.insert(spans.end(), buffer.begin(), buffer.end());
        }
        for (Span& span : spans) {
            if (span.request < 0 && span.session >= 0) {
                span.request = session_jobs_[span.session];
            }
        }
        return spans;
    }

  private:
    std::vector<Span>& Buffer()
    {
        // One buffer per thread, owned by the log so it outlives the
        // (per-session) threads that fill it.
        thread_local std::vector<Span>* buffer = nullptr;
        if (buffer == nullptr) {
            std::lock_guard<std::mutex> lock(mutex_);
            buffers_.emplace_back();
            buffer = &buffers_.back();
        }
        return *buffer;
    }

    std::mutex mutex_;
    std::deque<std::vector<Span>> buffers_;
    std::vector<int64_t> session_jobs_;
};

SpanLog* g_spans = nullptr;
std::atomic<uint32_t> g_batch{0};

/// Registers "perfbench/<id>" for every workload of the plan: same guest,
/// with make_run and each RunFn call timed. Thread-safe: round mode calls
/// the RunFn from several threads at once.
void
RegisterTracedWorkloads(const Plan& plan)
{
    for (const JobMix& mix : plan.mix) {
        chef::workloads::WorkloadInfo info =
            *chef::workloads::FindWorkload(mix.workload);
        info.id = kTracedPrefix + mix.workload;
        const uint8_t lang = info.language == "minilua" ? kFlagLua : 0;
        auto make_run = info.make_run;
        info.make_run = [make_run, lang](
                            const chef::interp::InterpBuildOptions& build) {
            Span span;
            span.kind = kMakeRun;
            span.flags = lang;
            span.batch = g_batch.load(std::memory_order_relaxed);
            span.session = g_spans->NewSession();
            span.start = Now();
            Engine::RunFn inner = make_run(build);
            span.end = Now();
            g_spans->Add(span);
            const int64_t session = span.session;
            const uint32_t batch = span.batch;
            return Engine::RunFn(
                [inner, lang, session, batch](
                    chef::lowlevel::LowLevelRuntime& rt) {
                    Span run;
                    run.kind = kGuestRun;
                    run.batch = batch;
                    run.session = session;
                    run.request = t_current_job;
                    run.start = Now();
                    Engine::GuestOutcome outcome = inner(rt);
                    run.end = Now();
                    run.flags = lang;
                    if (rt.status() == chef::lowlevel::PathStatus::kHang) {
                        run.flags |= kFlagHang;
                    }
                    if (run.request >= 0) {
                        g_spans->BindSession(session, run.request);
                    }
                    g_spans->Add(run);
                    return outcome;
                });
        };
        chef::workloads::RegisterWorkload(std::move(info));
    }
}

/// Length of [start, end] covered by the union of the given intervals.
double
Covered(std::vector<std::pair<double, double>> intervals, double start,
        double end)
{
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double cursor = start;
    for (const auto& [lo_raw, hi_raw] : intervals) {
        const double lo = std::max(lo_raw, cursor);
        const double hi = std::min(hi_raw, end);
        if (hi > lo) {
            covered += hi - lo;
            cursor = hi;
        }
    }
    return covered;
}

// ---------------------------------------------------------------------------
// Systems under test.

constexpr double kNever = -1.0;

/// What one batch call produced, as seen from outside.
struct BatchOutcome {
    std::vector<JobResult> results;
    double submitted = 0.0;  ///< Now() at submission.
    double wall = 0.0;
    /// Per job: seconds from submission to its start / completion event
    /// (kNever when not observed).
    std::vector<double> started;
    std::vector<double> completed;
    /// Shared-cache and event counters of this batch alone (ServiceStats
    /// accumulates across batches); cache_bytes is the gauge after it.
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t cache_model_hits = 0;
    uint64_t cache_evictions = 0;
    size_t cache_bytes = 0;
    uint64_t events = 0;
};

uint64_t
StepsIn(const chef::obs::AttributionSnapshot& snapshot)
{
    uint64_t steps = 0;
    for (const auto& [workload, rows] : snapshot.workloads) {
        for (const auto& [hl_pc, row] : rows) {
            steps += row.steps;
        }
    }
    return steps;
}

/// One ExplorationService, reused for every batch it is given.
class ServiceSystem
{
  public:
    ServiceSystem(const Plan& plan, uint64_t seed)
    {
        ExplorationService::Options options;
        options.num_workers = plan.workers;
        options.seed = seed;
        options.share_solver_cache = plan.share_cache;
        options.on_job_event = [this](const JobEvent& event) {
            OnEvent(event);
        };
        service_ = std::make_unique<ExplorationService>(options);
    }

    void RunBatch(const std::vector<JobSpec>& jobs, BatchOutcome* out)
    {
        started_.assign(jobs.size(), kNever);
        completed_.assign(jobs.size(), kNever);
        const ServiceStats before = service_->stats();
        submit_ = Clock::now();
        out->submitted = Now();
        out->results = service_->RunBatch(jobs);
        out->wall = SecondsSince(submit_);
        // RunBatch joins its event dispatcher before returning, so every
        // stamp below is final.
        out->started = started_;
        out->completed = completed_;
        const ServiceStats& after = service_->stats();
        out->cache_hits = after.shared_cache_hits - before.shared_cache_hits;
        out->cache_misses =
            after.shared_cache_misses - before.shared_cache_misses;
        out->cache_model_hits =
            after.shared_cache_model_hits - before.shared_cache_model_hits;
        out->cache_evictions =
            after.shared_cache_evictions - before.shared_cache_evictions;
        out->cache_bytes = after.shared_cache_bytes;
        out->events = after.events_delivered - before.events_delivered;
        keys_after_.push_back(service_->corpus().size());
    }

    /// Corpus entries, each with the batch it arrived in.
    std::vector<std::pair<TestCorpus::Entry, size_t>> Entries() const
    {
        // Corpus sequence numbers are assigned in insertion order, so the
        // corpus size after each batch brackets that batch's entries.
        std::vector<std::pair<TestCorpus::Entry, size_t>> entries;
        for (TestCorpus::Entry& entry : service_->corpus().Snapshot()) {
            const size_t batch = static_cast<size_t>(
                std::lower_bound(keys_after_.begin(), keys_after_.end(),
                                 entry.sequence) -
                keys_after_.begin());
            entries.emplace_back(std::move(entry), batch);
        }
        return entries;
    }

    size_t distinct_keys() const { return service_->corpus().size(); }

  private:
    void OnEvent(const JobEvent& event)
    {
        const double t = SecondsSince(submit_);
        if (event.job_index >= started_.size()) {
            return;
        }
        if (event.kind == JobEvent::Kind::kJobStarted) {
            started_[event.job_index] = t;
        } else if (event.kind == JobEvent::Kind::kJobCompleted) {
            completed_[event.job_index] = t;
        }
    }

    std::unique_ptr<ExplorationService> service_;
    Clock::time_point submit_;
    std::vector<double> started_;
    std::vector<double> completed_;
    std::vector<uint64_t> keys_after_;
};

/// One set-up: construct a service and bring a one-run probe job through
/// it. Timed to the probe's completion rather than to its start event:
/// that event arrives asynchronously, with a delivery lag as large as the
/// set-up itself.
double
MeasureSetup(const Plan& plan, uint64_t seed)
{
    const Clock::time_point start = Clock::now();
    JobSpec probe;
    probe.workload = plan.mix.front().workload;
    probe.options.max_runs = 1;
    probe.options.max_seconds = 1e9;
    probe.seed = seed | 1;
    ServiceSystem service(plan, seed);
    BatchOutcome outcome;
    service.RunBatch({probe}, &outcome);
    const double seconds = SecondsSince(start);
    if (outcome.results.size() != 1 ||
        outcome.results[0].status != JobStatus::kCompleted) {
        std::fprintf(stderr, "perfbench: set-up probe failed\n");
        std::exit(1);
    }
    return seconds;
}

// ---------------------------------------------------------------------------
// Output check: concrete replay on the vanilla build.

class Replayer
{
  public:
    struct Verdict {
        bool match = false;
        std::set<int> lines;
    };

    Verdict Replay(const TestCorpus::Entry& entry)
    {
        const Guest& guest = GuestFor(entry.workload);
        chef::solver::Assignment inputs;
        for (const auto& [var, value] : entry.inputs) {
            inputs.Set(var, value);
        }
        Verdict verdict;
        const std::string& kind = entry.outcome_kind;
        if (guest.py != nullptr) {
            const auto replay =
                chef::workloads::ReplayPy(guest.program, *guest.py, inputs);
            verdict.lines = replay.covered_lines;
            if (kind == "ok") {
                verdict.match = replay.ok;
            } else if (kind == "exception") {
                verdict.match = !replay.ok &&
                                replay.exception_type == entry.outcome_detail;
            } else if (kind == "hang") {
                verdict.match = !replay.ok;
            }
        } else {
            const auto replay =
                chef::workloads::ReplayLua(guest.chunk, *guest.lua, inputs);
            verdict.lines = replay.covered_lines;
            if (kind == "ok") {
                verdict.match = replay.ok;
            } else if (kind == "error") {
                verdict.match =
                    !replay.ok && replay.error_message.find(
                                      entry.outcome_detail) !=
                                      std::string::npos;
            } else if (kind == "hang") {
                verdict.match = !replay.ok;
            }
        }
        return verdict;
    }

  private:
    struct Guest {
        const chef::workloads::PySymbolicTest* py = nullptr;
        std::shared_ptr<chef::minipy::Program> program;
        const chef::workloads::LuaSymbolicTest* lua = nullptr;
        std::shared_ptr<chef::minilua::LuaChunk> chunk;
    };

    const Guest& GuestFor(const std::string& id)
    {
        auto it = guests_.find(id);
        if (it != guests_.end()) {
            return it->second;
        }
        Guest guest;
        if (id.compare(0, 3, "py/") == 0) {
            const auto& package =
                chef::workloads::PyPackageByName(id.substr(3));
            guest.py = &package.test;
            guest.program = chef::workloads::CompilePyOrDie(
                package.test.source);
        } else {
            const auto& package =
                chef::workloads::LuaPackageByName(id.substr(4));
            guest.lua = &package.test;
            guest.chunk = chef::workloads::ParseLuaOrDie(
                package.test.source);
        }
        return guests_.emplace(id, std::move(guest)).first->second;
    }

    std::map<std::string, Guest> guests_;
};

/// FNV-1a over the sorted (original workload id, fingerprint) key set.
uint64_t
KeysDigest(const std::vector<TestCorpus::Key>& raw)
{
    std::vector<TestCorpus::Key> keys;
    keys.reserve(raw.size());
    for (const TestCorpus::Key& key : raw) {
        keys.emplace_back(OriginalId(key.first), key.second);
    }
    std::sort(keys.begin(), keys.end());
    uint64_t hash = 0xcbf29ce484222325ULL;
    const auto feed = [&hash](const void* data, size_t size) {
        const auto* bytes = static_cast<const unsigned char*>(data);
        for (size_t i = 0; i < size; ++i) {
            hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
        }
    };
    for (const TestCorpus::Key& key : keys) {
        feed(key.first.data(), key.first.size() + 1);
        feed(&key.second, sizeof(key.second));
    }
    return hash;
}

/// A batch's fingerprint keys and the wall time that found them.
struct BatchKeys {
    std::vector<TestCorpus::Key> keys;
    double wall = 0.0;
};

BatchKeys
RunFreshBatch(const Plan& plan, const std::vector<JobSpec>& jobs,
              uint64_t seed)
{
    ServiceSystem service(plan, seed);
    BatchOutcome outcome;
    service.RunBatch(jobs, &outcome);
    BatchKeys result;
    result.wall = outcome.wall;
    for (const auto& [entry, batch] : service.Entries()) {
        result.keys.emplace_back(entry.workload, entry.fingerprint);
    }
    return result;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

void
PrintResult(bool correct, size_t attempted, size_t failed,
            const std::vector<Metric>& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                    metrics[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

bool
WriteSpans(const std::string& path, const std::string& workload,
           uint64_t seed, const std::vector<Span>& spans,
           const std::vector<double>& self)
{
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
        return false;
    }
    // Span ids are positions; parents resolve through (batch, job).
    std::map<uint32_t, size_t> batch_ids;
    std::map<std::pair<uint32_t, int64_t>, size_t> job_ids;
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].kind == kBatch) {
            batch_ids[spans[i].batch] = i;
        } else if (spans[i].kind == kJob) {
            job_ids[{spans[i].batch, spans[i].request}] = i;
        }
    }
    std::fprintf(file,
                 "{\"workload\": \"%s\", \"seed\": %" PRIu64
                 ", \"time_unit\": \"s\", \"spans\": [\n",
                 workload.c_str(), seed);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span& span = spans[i];
        int64_t parent = -1;
        const auto batch = batch_ids.find(span.batch);
        if (span.kind == kMakeRun || span.kind == kGuestRun) {
            const auto job = job_ids.find({span.batch, span.request});
            if (job != job_ids.end()) {
                parent = static_cast<int64_t>(job->second);
            } else if (batch != batch_ids.end()) {
                parent = static_cast<int64_t>(batch->second);
            }
        } else if (span.kind != kBatch && batch != batch_ids.end()) {
            parent = static_cast<int64_t>(batch->second);
        }
        std::fprintf(file,
                     "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                     "\"end\": %.9f, \"parent\": %" PRId64
                     ", \"request\": %" PRId64 ", \"self\": %.9f}%s\n",
                     i, kSpanNames[span.kind], span.start, span.end, parent,
                     span.request, self[i], i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(file, "]}\n");
    return std::fclose(file) == 0;
}

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;
};

bool
ParseArgs(int argc, char** argv, Args* args)
{
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* value = argv[i + 1];
        char* end = nullptr;
        if (flag == "--workload") {
            args->workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args->seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            args->seconds = std::strtod(value, &end);
        } else if (flag == "--trace") {
            args->trace = std::strcmp(value, "1") == 0;
            if (!args->trace && std::strcmp(value, "0") != 0) {
                return false;
            }
        } else if (flag == "--trace-out") {
            args->trace_out = value;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0') {
            return false;
        }
    }
    return have_workload && argc % 2 == 1 && args->seconds > 0.0;
}

/// Sums over the window's batches.
struct Totals {
    size_t jobs = 0;
    size_t completed = 0;
    uint64_t ll_paths = 0, hl_paths = 0, queries = 0, sliced = 0,
             incremental = 0, clauses = 0, infeasible = 0,
             assume_retries = 0, registered = 0, rounds = 0, contention = 0,
             pending = 0, steps = 0, offered = 0, accepted = 0, events = 0;
    double solver_s = 0.0;
    /// Session thread-seconds: elapsed x exploration threads.
    double explore_s = 0.0;
    double barrier_s = 0.0;
    double idle_s = 0.0;
    std::map<std::string, uint64_t> picks;
    std::vector<double> latency;
    std::vector<double> queue_wait;
    /// Per batch: completed runs / jobs per second of the batch call.
    std::vector<double> run_rates;
    std::vector<double> job_rates;
    uint64_t cache_hits = 0, model_hits = 0, evictions = 0;
    double cache_bytes = 0.0;
    double first_hit_ratio = 0.0;
    uint64_t later_hits = 0, later_lookups = 0;

    void Add(const BatchOutcome& batch, bool first, size_t workers)
    {
        double engine_s = 0.0;
        uint64_t batch_runs = 0;
        size_t batch_completed = 0;
        for (size_t j = 0; j < batch.results.size(); ++j) {
            const JobResult& r = batch.results[j];
            const chef::EngineStats& s = r.engine_stats;
            ++jobs;
            batch_completed += r.status == JobStatus::kCompleted;
            batch_runs += s.ll_paths;
            hl_paths += s.hl_paths;
            queries += s.solver_queries;
            sliced += s.solver_sliced_queries;
            incremental += s.solver_incremental_sat_calls;
            clauses += s.solver_clauses_loaded;
            infeasible += s.infeasible_states;
            assume_retries += s.assume_retries;
            registered += s.states_registered;
            rounds += s.rounds;
            contention += s.claim_contention;
            pending += s.frontier.pending;
            solver_s += s.solver_seconds;
            explore_s +=
                s.elapsed_seconds * std::max<uint32_t>(1, s.threads_used);
            barrier_s += s.barrier_wait_seconds;
            engine_s += s.elapsed_seconds;
            for (const auto& [strategy, count] : s.frontier.strategy_picks) {
                picks[strategy] += count;
            }
            steps += StepsIn(s.attribution);
            offered += r.num_relevant_test_cases;
            accepted += r.corpus_inserted;
            if (batch.completed[j] != kNever) {
                latency.push_back(batch.completed[j]);
            }
            if (batch.started[j] != kNever) {
                queue_wait.push_back(batch.started[j]);
            }
        }
        completed += batch_completed;
        ll_paths += batch_runs;
        run_rates.push_back(Ratio(static_cast<double>(batch_runs), batch.wall));
        job_rates.push_back(
            Ratio(static_cast<double>(batch_completed), batch.wall));
        idle_s += static_cast<double>(workers) * batch.wall - engine_s;
        events += batch.events;
        const uint64_t lookups = batch.cache_hits + batch.cache_misses;
        cache_hits += batch.cache_hits;
        if (first) {
            first_hit_ratio = Ratio(static_cast<double>(batch.cache_hits),
                                    static_cast<double>(lookups));
        } else {
            later_hits += batch.cache_hits;
            later_lookups += lookups;
        }
        model_hits += batch.cache_model_hits;
        evictions += batch.cache_evictions;
        cache_bytes =
            std::max(cache_bytes, static_cast<double>(batch.cache_bytes));
    }
};

/// Replays every corpus entry; fills coverage and bug sets and marks the
/// jobs whose entries fail to reproduce.
struct OutputCheck {
    size_t replayed = 0;
    size_t mismatches = 0;
    std::set<std::pair<std::string, int>> covered;
    std::set<std::tuple<std::string, std::string, std::string>> bugs;
    double seconds = 0.0;
};

OutputCheck
ReplayCorpus(const ServiceSystem& system, SpanLog* spans,
             std::set<std::pair<size_t, size_t>>* failed_jobs)
{
    OutputCheck check;
    const double start = Now();
    Replayer replayer;
    for (const auto& [entry, batch] : system.Entries()) {
        TestCorpus::Entry original = entry;
        original.workload = OriginalId(entry.workload);
        Span span;
        span.kind = kReplay;
        span.batch = static_cast<uint32_t>(batch);
        span.request = static_cast<int64_t>(entry.job_index);
        span.start = Now();
        const Replayer::Verdict verdict = replayer.Replay(original);
        span.end = Now();
        if (spans != nullptr) {
            spans->Add(span);
        }
        ++check.replayed;
        for (int line : verdict.lines) {
            check.covered.emplace(original.workload, line);
        }
        const std::string& kind = original.outcome_kind;
        if (kind == "exception" || kind == "error" || kind == "hang") {
            // Lua messages append the offending input after a colon
            // ("unknown statement: i"); the bug is the part before it.
            const std::string& detail = original.outcome_detail;
            check.bugs.emplace(original.workload, kind,
                               detail.substr(0, detail.find(':')));
        }
        if (!verdict.match) {
            ++check.mismatches;
            failed_jobs->insert({batch, entry.job_index});
            if (check.mismatches <= 5) {
                std::fprintf(stderr,
                             "perfbench: replay mismatch %s %s '%s'\n",
                             original.workload.c_str(), kind.c_str(),
                             original.outcome_detail.c_str());
            }
        }
    }
    check.seconds = Now() - start;
    return check;
}

/// What the spans of a traced run add up to.
struct TraceSummary {
    double py_run_s = 0.0;
    double lua_run_s = 0.0;
    double hang_s = 0.0;
    double make_run_s = 0.0;
    size_t guest_runs = 0;
    size_t make_runs = 0;
    double batch_self_s = 0.0;
    double job_self_s = 0.0;
    size_t spans = 0;
};

/// Adds the batch and job spans (from the calls and events seen here),
/// collects the wrappers' make_run / guest_run spans and the replays,
/// computes self times, and writes everything to \p path.
TraceSummary
SummarizeSpans(SpanLog* log, const std::vector<BatchOutcome>& batches,
               const std::string& workload, uint64_t seed,
               const std::string& path, bool* write_ok)
{
    for (size_t b = 0; b < batches.size(); ++b) {
        const BatchOutcome& batch = batches[b];
        Span span;
        span.kind = kBatch;
        span.batch = static_cast<uint32_t>(b);
        span.start = batch.submitted;
        span.end = batch.submitted + batch.wall;
        log->Add(span);
        for (size_t j = 0; j < batch.completed.size(); ++j) {
            Span job;
            job.kind = kJob;
            job.batch = span.batch;
            job.request = static_cast<int64_t>(j);
            job.start = batch.submitted + batch.started[j];
            job.end = batch.submitted + batch.completed[j];
            log->Add(job);
        }
    }
    const std::vector<Span> all = log->Collect();

    TraceSummary summary;
    summary.spans = all.size();
    using Intervals = std::vector<std::pair<double, double>>;
    std::map<uint32_t, Intervals> batch_children;
    std::map<std::pair<uint32_t, int64_t>, Intervals> job_children;
    for (const Span& span : all) {
        const double d = span.end - span.start;
        if (span.kind == kJob) {
            batch_children[span.batch].emplace_back(span.start, span.end);
        } else if (span.kind == kGuestRun || span.kind == kMakeRun) {
            job_children[{span.batch, span.request}].emplace_back(span.start,
                                                                  span.end);
        }
        if (span.kind == kGuestRun) {
            ++summary.guest_runs;
            (span.flags & kFlagLua ? summary.lua_run_s : summary.py_run_s) +=
                d;
            if (span.flags & kFlagHang) {
                summary.hang_s += d;
            }
        } else if (span.kind == kMakeRun) {
            ++summary.make_runs;
            summary.make_run_s += d;
        }
    }
    std::vector<double> self(all.size(), 0.0);
    for (size_t i = 0; i < all.size(); ++i) {
        const Span& span = all[i];
        Intervals children;
        if (span.kind == kBatch) {
            children = batch_children[span.batch];
        } else if (span.kind == kJob) {
            children = job_children[{span.batch, span.request}];
        }
        self[i] = span.end - span.start -
                  Covered(std::move(children), span.start, span.end);
        if (span.kind == kBatch) {
            summary.batch_self_s += self[i];
        } else if (span.kind == kJob) {
            summary.job_self_s += self[i];
        }
    }
    *write_ok = path.empty() || WriteSpans(path, workload, seed, all, self);
    return summary;
}

double
PeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!ParseArgs(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: %s --workload <name> --seed <n> --seconds <s> "
                     "--trace <0|1> [--trace-out <path>]\n",
                     argv[0]);
        return 2;
    }
    const Plan* plan_ptr = FindPlan(args.workload);
    if (plan_ptr == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    const Plan& plan = *plan_ptr;
    for (const JobMix& mix : plan.mix) {
        if (chef::workloads::FindWorkload(mix.workload) == nullptr) {
            std::fprintf(stderr, "perfbench: unknown workload %s\n",
                         mix.workload);
            return 2;
        }
    }

    // -- Warm-up and reference: the first batch, untraced, each time on a
    //    fresh system, repeated for at least kWarmupSeconds. Idle vCPUs of
    //    a virtual machine run slow for about a second after they wake, so
    //    nothing is timed before every core has been busy that long. Every
    //    repetition must find the same fingerprint set on deterministic
    //    workloads; the window's first batch is then checked against it.
    constexpr double kWarmupSeconds = 2.0;
    const std::vector<JobSpec> first_jobs =
        MakeBatch(plan, args.seed, 0, false);
    const Clock::time_point warmup_start = Clock::now();
    BatchKeys reference = RunFreshBatch(plan, first_jobs, args.seed);
    const uint64_t reference_digest = KeysDigest(reference.keys);
    bool correct = true;
    while (SecondsSince(warmup_start) < kWarmupSeconds) {
        // The last repetition, on warm cores, is also the untraced
        // reference the tracing overhead is measured against.
        reference = RunFreshBatch(plan, first_jobs, args.seed);
        const uint64_t again = KeysDigest(reference.keys);
        if (plan.deterministic && again != reference_digest) {
            std::fprintf(stderr,
                         "perfbench: batch 0 repetition digest %016" PRIx64
                         " != %016" PRIx64 "\n",
                         again, reference_digest);
            correct = false;
        }
    }

    // -- Set-up, several times on warm cores.
    constexpr int kSetups = 15;
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
        setups.push_back(MeasureSetup(plan, args.seed + i));
    }

    SpanLog spans;
    if (args.trace) {
        g_spans = &spans;
        RegisterTracedWorkloads(plan);
    }

    // -- The measured window: closed-loop batches until the batch calls
    //    have taken --seconds, and at least the plan's fixed run budget.
    ServiceSystem system(plan, args.seed);
    std::vector<BatchOutcome> batches;
    Totals totals;
    double window = 0.0;
    BatchKeys first;
    size_t budget_keys = 0;
    while (window < args.seconds || batches.size() < plan.budget_batches) {
        const size_t b = batches.size();
        g_batch.store(static_cast<uint32_t>(b), std::memory_order_relaxed);
        BatchOutcome outcome;
        system.RunBatch(MakeBatch(plan, args.seed, b, args.trace),
                        &outcome);
        window += outcome.wall;
        if (b == 0) {
            for (const auto& [entry, batch] : system.Entries()) {
                first.keys.emplace_back(entry.workload, entry.fingerprint);
            }
            first.wall = outcome.wall;
        }
        totals.Add(outcome, b == 0, plan.workers);
        if (b + 1 == plan.budget_batches) {
            budget_keys = system.distinct_keys();
        }

        // Keep what the checks and spans need, not the per-job
        // attribution tables and timelines.
        for (JobResult& result : outcome.results) {
            result.engine_stats = {};
        }
        batches.push_back(std::move(outcome));
    }
    const double peak_rss_mb = PeakRssMb();

    // -- Output check.
    std::set<std::pair<size_t, size_t>> failed_jobs;
    for (size_t b = 0; b < batches.size(); ++b) {
        for (size_t j = 0; j < batches[b].results.size(); ++j) {
            if (batches[b].results[j].status != JobStatus::kCompleted) {
                failed_jobs.insert({b, j});
            }
        }
    }
    const OutputCheck check =
        ReplayCorpus(system, args.trace ? &spans : nullptr, &failed_jobs);
    correct = correct && check.mismatches == 0 && failed_jobs.empty();
    if (totals.latency.size() < totals.jobs) {
        std::fprintf(stderr, "perfbench: %zu of %zu completions unobserved\n",
                     totals.jobs - totals.latency.size(), totals.jobs);
        correct = false;
    }
    const uint64_t digest = KeysDigest(first.keys);
    if (plan.deterministic && digest != reference_digest) {
        // Traced, this also proves the wrappers do not perturb results.
        std::fprintf(stderr,
                     "perfbench: batch 0 digest %016" PRIx64
                     " != reference %016" PRIx64 "\n",
                     digest, reference_digest);
        correct = false;
    }

    std::printf("workload=%s seed=%" PRIu64
                " batches=%zu jobs=%zu window_s=%.3f corpus=%zu "
                "replayed=%zu mismatches=%zu replay_s=%.3f "
                "latency_samples=%zu digest=%016" PRIx64
                " reference_digest=%016" PRIx64 "\n",
                plan.name, args.seed, batches.size(), totals.jobs, window,
                system.distinct_keys(), check.replayed, check.mismatches,
                check.seconds, totals.latency.size(), digest,
                reference_digest);

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"setup_s", Quantile(setups, 0.5), "s"},
            {"hl_paths_per_s",
             Ratio(static_cast<double>(system.distinct_keys()), window),
             "1/s"},
            {"runs_per_s", Quantile(totals.run_rates, 0.5), "1/s"},
            {"jobs_per_s", Quantile(totals.job_rates, 0.5), "1/s"},
            {"job_latency_p50_s", Quantile(totals.latency, 0.5), "s"},
            {"job_latency_p90_s", Quantile(totals.latency, 0.9), "s"},
            {"hl_paths", static_cast<double>(budget_keys), "count"},
            {"coverage_lines", static_cast<double>(check.covered.size()),
             "count"},
            {"bugs_found", static_cast<double>(check.bugs.size()), "count"},
        };
        PrintResult(correct, totals.jobs, failed_jobs.size(), metrics);
        return 0;
    }

    bool trace_written = true;
    const TraceSummary trace = SummarizeSpans(
        &spans, batches, plan.name, args.seed, args.trace_out,
        &trace_written);
    if (!trace_written) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.trace_out.c_str());
        correct = false;
    }
    const double guest_s = trace.py_run_s + trace.lua_run_s;
    const double chef_self = totals.explore_s - guest_s - totals.solver_s;
    // The layers must add up: guest runs and solver calls both happen
    // inside the sessions' thread-time, and never overlap each other.
    if (chef_self < -0.01 * totals.explore_s) {
        std::fprintf(stderr,
                     "perfbench: guest %.4fs + solver %.4fs exceed explore "
                     "%.4fs\n",
                     guest_s, totals.solver_s, totals.explore_s);
        correct = false;
    }
    // Tracing overhead: the traced first batch against the last warm-up
    // repetition of the same batch, untraced, each on a fresh system.
    const double traced_rate =
        Ratio(static_cast<double>(first.keys.size()), first.wall);
    const double untraced_rate =
        Ratio(static_cast<double>(reference.keys.size()), reference.wall);

    const Totals& t = totals;
    const double q = static_cast<double>(t.queries);
    const auto count = [](uint64_t n) { return static_cast<double>(n); };
    metrics = {
        {"solver.busy_s", t.solver_s, "s"},
        {"solver.queries", q, "count"},
        {"solver.s_per_query", Ratio(t.solver_s, q), "s"},
        {"solver.incremental_sat_calls", count(t.incremental), "count"},
        {"solver.clauses_loaded", count(t.clauses), "count"},
        {"solver.sliced_frac", Ratio(count(t.sliced), q), "ratio"},
        {"solver.infeasible_frac", Ratio(count(t.infeasible), q), "ratio"},
        {"minipy.run_s", trace.py_run_s, "s"},
        {"minilua.run_s", trace.lua_run_s, "s"},
        {"interp.runs", count(trace.guest_runs), "count"},
        {"interp.steps", count(t.steps), "count"},
        {"interp.steps_per_s", Ratio(count(t.steps), guest_s), "1/s"},
        {"interp.hang_s", trace.hang_s, "s"},
        {"chef.explore_s", t.explore_s, "s"},
        {"chef.self_s", chef_self, "s"},
        {"chef.solver_share", Ratio(t.solver_s, t.explore_s), "ratio"},
        {"chef.job_self_s", trace.job_self_s, "s"},
        {"chef.useful_run_ratio", Ratio(count(t.hl_paths), count(t.ll_paths)),
         "ratio"},
        {"chef.assume_retries", count(t.assume_retries), "count"},
        {"chef.rounds", count(t.rounds), "count"},
        {"chef.barrier_wait_s", t.barrier_s, "s"},
        {"chef.claim_contention", count(t.contention), "count"},
        {"cupa.picks.cupa-path", count(totals.picks["cupa-path"]), "count"},
        {"cupa.picks.cupa-coverage", count(totals.picks["cupa-coverage"]),
         "count"},
        {"hll.hl_paths", count(t.hl_paths), "count"},
        {"lowlevel.states_registered", count(t.registered), "count"},
        {"lowlevel.frontier_pending", count(t.pending), "count"},
        {"cache.hits", count(t.cache_hits), "count"},
        {"cache.hit_ratio_first_batch", t.first_hit_ratio, "ratio"},
        {"cache.hit_ratio_later_batches",
         Ratio(count(t.later_hits), count(t.later_lookups)), "ratio"},
        {"cache.model_hits", count(t.model_hits), "count"},
        {"cache.bytes", t.cache_bytes, "bytes"},
        {"cache.evictions", count(t.evictions), "count"},
        {"service.queue_wait_p50_s", Quantile(t.queue_wait, 0.5), "s"},
        {"service.idle_s", t.idle_s, "s"},
        {"service.batch_self_s", trace.batch_self_s, "s"},
        {"service.corpus_dup_frac",
         Ratio(count(t.offered - std::min(t.offered, t.accepted)),
               count(t.offered)),
         "ratio"},
        {"service.events_delivered", count(t.events), "count"},
        {"workloads.compile_s",
         Ratio(trace.make_run_s, count(trace.make_runs)), "s"},
        {"obs.trace_overhead_frac",
         untraced_rate > 0.0 ? 1.0 - traced_rate / untraced_rate : 0.0,
         "ratio"},
        {"obs.spans", count(trace.spans), "count"},
        {"process.peak_rss_mb", peak_rss_mb, "MB"},
    };
    PrintResult(correct, totals.jobs, failed_jobs.size(), metrics);
    return 0;
}
