/// \file
/// chef_shard: the distributed shard CLI.
///
/// Two modes over the shard/wire.h protocol:
///
///   chef_shard --worker
///     Serves one shard on stdin/stdout (spawned by a coordinator; the
///     protocol owns stdout, diagnostics go to stderr).
///
///   chef_shard --coordinator --workers N [options]
///     Spawns N `chef_shard --worker` subprocesses over pipes, fans the
///     batch out, and writes the merged JSON report. With --smoke it
///     additionally runs the same batch on one in-process loopback
///     shard and asserts the multi-process merged corpus covers the
///     single-shard corpus, the report parses strictly, and the
///     cross-shard dedup stats are present — the CI contract.
///
/// Batch options (coordinator): repeat --job WORKLOAD[xCOUNT] to build
/// the batch (default: a small mixed py/lua batch), --max-runs,
/// --seed, --shard-workers (worker threads per shard), --budget
/// (service seconds per shard), --plateau, --no-gossip, --report PATH.
///
/// Telemetry options: --trace-out PATH turns on phase tracing in every
/// worker and writes the merged Chrome trace-event JSON (load in
/// chrome://tracing or Perfetto); --metrics-interval MS sets the
/// cadence of live metrics snapshots piggybacked on gossip. Both accept
/// --flag=value and --flag value forms. The merged report always
/// carries a "telemetry" section with per-shard and cluster-merged
/// metrics snapshots.
///
/// Time-series options (coordinator; all force a 100 ms metrics
/// interval when none was set): --stats-out PATH streams one NDJSON
/// line per shard sample (windowed jobs/s, fingerprints/s, solver p95,
/// cluster totals) as gossip delivers them; --curves-out PATH writes
/// the per-workload coverage_curves CSV (the Figure-9 reproduction);
/// --series-out PATH dumps every retained cluster sample as JSON;
/// --monitor renders an in-place ANSI dashboard to stderr while the
/// batch runs. Shard deaths additionally appear on the --stats-out
/// stream as {"event":"shard_death",...} records.
///
/// Attribution options (coordinator): --attr-out PATH writes the
/// cluster per-location attribution table (solver seconds, steps,
/// forks, new fingerprints, ... charged to each high-level location)
/// as strict JSON; --flame-out PATH writes the same table as folded
/// stacks ("workload;0xroot;...;0xleaf value" lines) ready for
/// flamegraph.pl or speedscope. --monitor appends a "hot locations"
/// panel ranked by solver cost and by fingerprint yield per solver
/// second. Attribution is on by default in every worker; the tables
/// ride gossip at the metrics cadence (wire v2.4) and always arrive
/// with the final result.
///
/// Fault-tolerance options (coordinator): --heartbeat-interval MS sets
/// the worker heartbeat cadence (v2.2; 0 disables), --respawns N lets
/// the coordinator respawn each dead worker up to N times,
/// --min-live-shards K degrades the batch to a partial report below K
/// live shards, and --chaos kill-one SIGKILLs the first shard to
/// heartbeat — a built-in crash drill: the run must still complete,
/// flagged "degraded" with the dead shard's jobs requeued onto
/// survivors. With --smoke the chaos run additionally asserts the
/// merged corpus is key-for-key identical to an undisturbed
/// single-shard run.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "obs/monitor.h"
#include "obs/timeseries.h"
#include "service/report.h"
#include "shard/coordinator.h"
#include "shard/transport.h"
#include "shard/wire.h"
#include "shard/worker.h"
#include "support/json.h"

namespace {

using chef::service::JobSpec;
using chef::service::TestCorpus;
using chef::shard::ShardCoordinator;
using chef::shard::ShardWorker;
using chef::shard::Transport;
using chef::shard::WorkerProcess;

struct CliOptions {
    bool worker = false;
    bool coordinator = false;
    size_t num_workers = 2;
    size_t shard_workers = 1;
    /// Intra-session exploration threads granted to each job's engine
    /// (deterministic round mode; 1 = classic serial sessions).
    uint32_t engine_threads = 1;
    uint64_t seed = 2014;
    uint64_t max_runs = 25;
    double budget_seconds = 0.0;
    bool plateau = false;
    bool gossip = true;
    bool smoke = false;
    std::string report_path = "chef_shard_report.json";
    /// Non-empty enables worker phase tracing; the merged trace lands
    /// here as Chrome trace-event JSON.
    std::string trace_path;
    /// Live telemetry cadence in milliseconds; 0 = final snapshot only
    /// (unless a time-series sink below forces the 100 ms default).
    double metrics_interval_ms = 0.0;
    /// NDJSON stream of per-shard series samples.
    std::string stats_path;
    /// Per-workload coverage-curves CSV (Figure 9).
    std::string curves_path;
    /// Full cluster series dump as JSON.
    std::string series_path;
    /// Render the live ANSI dashboard to stderr.
    bool monitor = false;
    /// Cluster attribution table as strict JSON.
    std::string attr_path;
    /// Cluster attribution table as folded stacks (flamegraph input).
    std::string flame_path;
    /// Fault-injection drill: "" (off) or "kill-one" (SIGKILL the first
    /// shard that heartbeats — provably mid-batch).
    std::string chaos;
    /// Worker heartbeat cadence in milliseconds (0 disables v2.2
    /// heartbeats and the streamed-results channel).
    double heartbeat_interval_ms = 250.0;
    /// Respawn budget per dead worker.
    size_t max_respawns = 0;
    /// Quorum below which the batch degrades instead of requeueing.
    size_t min_live_shards = 1;
    std::vector<std::pair<std::string, int>> job_specs;  // workload, count
};

void
Usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --worker\n"
        "       %s --coordinator [--workers N] [--job WORKLOAD[xCOUNT]]...\n"
        "           [--max-runs N] [--seed S] [--shard-workers K]\n"
        "           [--engine-threads N]\n"
        "           [--budget SECONDS] [--plateau] [--no-gossip]\n"
        "           [--report PATH] [--trace-out PATH]\n"
        "           [--metrics-interval MS] [--stats-out PATH]\n"
        "           [--curves-out PATH] [--series-out PATH]\n"
        "           [--attr-out PATH] [--flame-out PATH]\n"
        "           [--heartbeat-interval MS] [--respawns N]\n"
        "           [--min-live-shards K] [--chaos kill-one]\n"
        "           [--monitor] [--smoke]\n",
        argv0, argv0);
}

bool
ParseArgs(int argc, char** argv, CliOptions* options)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                return nullptr;
            }
            return argv[++i];
        };
        // --flag=value form (telemetry flags accept both forms; the
        // older batch flags keep their space form only).
        std::string inline_value;
        bool flag_error = false;
        const auto match = [&](const char* flag) {
            if (arg == flag) {
                const char* value = next(flag);
                if (value == nullptr) {
                    flag_error = true;
                    return false;
                }
                inline_value = value;
                return true;
            }
            const std::string prefix = std::string(flag) + "=";
            if (arg.compare(0, prefix.size(), prefix) == 0) {
                inline_value = arg.substr(prefix.size());
                return true;
            }
            return false;
        };
        if (match("--trace-out")) {
            if (inline_value.empty()) {
                std::fprintf(stderr, "--trace-out requires a path\n");
                return false;
            }
            options->trace_path = inline_value;
            continue;
        }
        if (match("--metrics-interval")) {
            options->metrics_interval_ms = std::atof(inline_value.c_str());
            continue;
        }
        if (match("--stats-out")) {
            if (inline_value.empty()) {
                std::fprintf(stderr, "--stats-out requires a path\n");
                return false;
            }
            options->stats_path = inline_value;
            continue;
        }
        if (match("--curves-out")) {
            if (inline_value.empty()) {
                std::fprintf(stderr, "--curves-out requires a path\n");
                return false;
            }
            options->curves_path = inline_value;
            continue;
        }
        if (match("--series-out")) {
            if (inline_value.empty()) {
                std::fprintf(stderr, "--series-out requires a path\n");
                return false;
            }
            options->series_path = inline_value;
            continue;
        }
        if (match("--attr-out")) {
            if (inline_value.empty()) {
                std::fprintf(stderr, "--attr-out requires a path\n");
                return false;
            }
            options->attr_path = inline_value;
            continue;
        }
        if (match("--flame-out")) {
            if (inline_value.empty()) {
                std::fprintf(stderr, "--flame-out requires a path\n");
                return false;
            }
            options->flame_path = inline_value;
            continue;
        }
        if (match("--heartbeat-interval")) {
            options->heartbeat_interval_ms =
                std::atof(inline_value.c_str());
            continue;
        }
        if (match("--respawns")) {
            options->max_respawns = static_cast<size_t>(
                std::strtoull(inline_value.c_str(), nullptr, 10));
            continue;
        }
        if (match("--min-live-shards")) {
            options->min_live_shards = static_cast<size_t>(
                std::strtoull(inline_value.c_str(), nullptr, 10));
            continue;
        }
        if (match("--chaos")) {
            if (inline_value != "kill-one") {
                std::fprintf(stderr,
                             "--chaos supports only 'kill-one' (got "
                             "'%s')\n",
                             inline_value.c_str());
                return false;
            }
            options->chaos = inline_value;
            continue;
        }
        if (flag_error) {
            return false;
        }
        if (arg == "--worker") {
            options->worker = true;
        } else if (arg == "--coordinator") {
            options->coordinator = true;
        } else if (arg == "--workers") {
            const char* value = next("--workers");
            if (value == nullptr) {
                return false;
            }
            options->num_workers =
                static_cast<size_t>(std::strtoull(value, nullptr, 10));
        } else if (arg == "--shard-workers") {
            const char* value = next("--shard-workers");
            if (value == nullptr) {
                return false;
            }
            options->shard_workers =
                static_cast<size_t>(std::strtoull(value, nullptr, 10));
        } else if (arg == "--engine-threads") {
            const char* value = next("--engine-threads");
            if (value == nullptr) {
                return false;
            }
            options->engine_threads =
                static_cast<uint32_t>(std::strtoull(value, nullptr, 10));
            if (options->engine_threads == 0) {
                options->engine_threads = 1;
            }
        } else if (arg == "--seed") {
            const char* value = next("--seed");
            if (value == nullptr) {
                return false;
            }
            options->seed = std::strtoull(value, nullptr, 0);
        } else if (arg == "--max-runs") {
            const char* value = next("--max-runs");
            if (value == nullptr) {
                return false;
            }
            options->max_runs = std::strtoull(value, nullptr, 10);
        } else if (arg == "--budget") {
            const char* value = next("--budget");
            if (value == nullptr) {
                return false;
            }
            options->budget_seconds = std::atof(value);
        } else if (arg == "--monitor") {
            options->monitor = true;
        } else if (arg == "--plateau") {
            options->plateau = true;
        } else if (arg == "--no-gossip") {
            options->gossip = false;
        } else if (arg == "--smoke") {
            options->smoke = true;
        } else if (arg == "--report") {
            const char* value = next("--report");
            if (value == nullptr) {
                return false;
            }
            options->report_path = value;
        } else if (arg == "--job") {
            const char* value = next("--job");
            if (value == nullptr) {
                return false;
            }
            std::string workload = value;
            int count = 1;
            const size_t x = workload.rfind('x');
            if (x != std::string::npos && x + 1 < workload.size() &&
                workload.find('/') < x) {
                const int parsed = std::atoi(workload.c_str() + x + 1);
                if (parsed > 0) {
                    count = parsed;
                    workload.resize(x);
                }
            }
            options->job_specs.emplace_back(workload, count);
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            return false;
        }
    }
    if (options->worker == options->coordinator) {
        Usage(argv[0]);
        return false;
    }
    return true;
}

std::vector<JobSpec>
BuildBatch(const CliOptions& options)
{
    std::vector<std::pair<std::string, int>> specs = options.job_specs;
    if (specs.empty()) {
        // A small duplicate-skewed mixed batch: enough overlap for the
        // gossip/dedup machinery to have something to do.
        specs = {{"py/argparse", 3},
                 {"py/simplejson", 1},
                 {"lua/cliargs", 1},
                 {"lua/haml", 1}};
    }
    std::vector<JobSpec> jobs;
    int copy = 0;
    for (const auto& [workload, count] : specs) {
        for (int i = 0; i < count; ++i) {
            JobSpec spec;
            spec.workload = workload;
            spec.label = workload + "#" + std::to_string(i);
            spec.seed = static_cast<uint64_t>(++copy);
            spec.options.max_runs = options.max_runs;
            spec.options.max_seconds = 1e9;
            spec.options.collect_timeline = false;
            jobs.push_back(std::move(spec));
        }
    }
    return jobs;
}

/// The smoke's engine-threads parity baseline: a second round-mode width.
/// Round mode is bit-identical only across thread counts >= 2 (one thread
/// runs the serial loop, which selects states in a different order).
uint32_t
ParityBaselineThreads(uint32_t engine_threads)
{
    return engine_threads == 2 ? 3 : 2;
}

ShardCoordinator::Options
CoordinatorOptions(const CliOptions& options)
{
    ShardCoordinator::Options coordinator;
    coordinator.service.seed = options.seed;
    coordinator.service.num_workers = options.shard_workers;
    coordinator.service.engine_threads = options.engine_threads;
    // The smoke's parity check compares two round-mode widths: reserve
    // enough cores that no host clamps either grant to the serial loop.
    if (options.smoke && options.engine_threads > 1) {
        coordinator.service.core_budget =
            options.shard_workers *
            std::max(options.engine_threads,
                     ParityBaselineThreads(options.engine_threads));
    }
    coordinator.service.max_total_seconds = options.budget_seconds;
    if (options.plateau) {
        coordinator.service.plateau_policy.enabled = true;
        coordinator.service.plateau_policy.deprioritize_after = 1;
        coordinator.service.plateau_policy.cancel_after = 2;
    }
    coordinator.gossip = options.gossip;
    coordinator.service.tracing = !options.trace_path.empty();
    coordinator.service.metrics_interval_seconds =
        options.metrics_interval_ms / 1000.0;
    // The time-series sinks are useless without samples; force the
    // 100 ms default cadence when none was requested explicitly.
    const bool wants_series = options.monitor ||
                              !options.stats_path.empty() ||
                              !options.curves_path.empty() ||
                              !options.series_path.empty();
    if (wants_series && coordinator.service.metrics_interval_seconds <= 0.0) {
        coordinator.service.metrics_interval_seconds = 0.1;
    }
    coordinator.heartbeat_interval_seconds =
        options.heartbeat_interval_ms / 1000.0;
    coordinator.max_respawns = options.max_respawns;
    coordinator.min_live_shards = options.min_live_shards;
    return coordinator;
}

bool
ReadFileOrComplain(const std::string& path, std::string* contents)
{
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
        std::fprintf(stderr, "failed to read %s\n", path.c_str());
        return false;
    }
    contents->clear();
    char buffer[65536];
    size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
        contents->append(buffer, n);
    }
    std::fclose(file);
    return true;
}

bool
WriteFileOrComplain(const std::string& path, const std::string& contents)
{
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr ||
        std::fwrite(contents.data(), 1, contents.size(), file) !=
            contents.size() ||
        std::fclose(file) != 0) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return false;
    }
    return true;
}

std::string
SelfBinaryPath(const char* argv0)
{
    char buffer[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
    if (n > 0) {
        buffer[n] = '\0';
        return buffer;
    }
    return argv0;
}

/// ShardSupervisor over the coordinator's pipe-worker subprocesses:
/// waitpid(WNOHANG) liveness probes and fork/exec respawns that replace
/// the dead WorkerProcess slot in place.
class PipeShardSupervisor : public chef::shard::ShardSupervisor
{
  public:
    PipeShardSupervisor(std::string binary,
                        std::vector<WorkerProcess>* processes)
        : binary_(std::move(binary)), processes_(processes)
    {
    }

    bool Probe(size_t shard_id, std::string* cause) override
    {
        if (shard_id >= processes_->size()) {
            return true;
        }
        WorkerProcess& process = (*processes_)[shard_id];
        if (process.pid < 0) {
            if (cause != nullptr) {
                *cause = "process gone";
            }
            return false;
        }
        if (!chef::shard::ProbeWorkerProcess(process.pid, cause)) {
            process.pid = -1;  // Reaped by the probe; don't wait again.
            return false;
        }
        return true;
    }

    Transport* Respawn(size_t shard_id) override
    {
        if (shard_id >= processes_->size()) {
            return nullptr;
        }
        WorkerProcess& slot = (*processes_)[shard_id];
        if (slot.pid >= 0) {
            // Dead to the protocol but the process survives (hung, or
            // spoke garbage): reap it before replacing the slot.
            ::kill(slot.pid, SIGKILL);
            chef::shard::WaitWorkerProcess(slot.pid);
            slot.pid = -1;
        }
        WorkerProcess fresh;
        std::string error;
        if (!chef::shard::SpawnWorkerProcess(binary_, {"--worker"},
                                             &fresh, &error)) {
            std::fprintf(stderr, "respawn shard %zu: %s\n", shard_id,
                         error.c_str());
            return nullptr;
        }
        slot = std::move(fresh);
        return slot.transport.get();
    }

  private:
    std::string binary_;
    std::vector<WorkerProcess>* processes_;
};

int
RunWorker()
{
    // The protocol owns stdin/stdout; stderr remains for diagnostics.
    std::unique_ptr<Transport> transport = chef::shard::CreateFdTransport(
        STDIN_FILENO, STDOUT_FILENO, /*owns_fds=*/false);
    ShardWorker worker(ShardWorker::Options{}, transport.get());
    return worker.Serve() ? 0 : 1;
}

/// True when every key of \p subset is present in \p superset.
bool
CoversCorpus(const std::vector<TestCorpus::Key>& superset,
             const std::vector<TestCorpus::Key>& subset)
{
    size_t i = 0;
    for (const TestCorpus::Key& key : subset) {
        while (i < superset.size() && superset[i] < key) {
            ++i;
        }
        if (i >= superset.size() || !(superset[i] == key)) {
            return false;
        }
    }
    return true;
}

int
RunCoordinator(const CliOptions& options, const char* argv0)
{
    const std::vector<JobSpec> jobs = BuildBatch(options);
    const std::string binary = SelfBinaryPath(argv0);

    std::vector<WorkerProcess> processes;
    std::vector<Transport*> transports;
    for (size_t i = 0; i < options.num_workers; ++i) {
        WorkerProcess process;
        std::string error;
        if (!chef::shard::SpawnWorkerProcess(binary, {"--worker"},
                                             &process, &error)) {
            std::fprintf(stderr, "spawn worker %zu: %s\n", i,
                         error.c_str());
            return 1;
        }
        processes.push_back(std::move(process));
    }
    for (WorkerProcess& process : processes) {
        transports.push_back(process.transport.get());
    }

    ShardCoordinator::Options coordinator_options =
        CoordinatorOptions(options);
    // Pipe workers always get the process-level supervisor: waitpid
    // probes catch corpses whose pipes still read clean, and --respawns
    // turns on revival through the same object.
    PipeShardSupervisor supervisor(binary, &processes);
    coordinator_options.supervisor = &supervisor;
    const double stats_window = std::max(
        2.0, 4.0 * coordinator_options.service.metrics_interval_seconds);

    // Live time-series sinks, driven from the coordinator's Run thread
    // via on_series_update: an NDJSON line per fresh sample, and a
    // throttled in-place dashboard frame.
    std::FILE* stats_file = nullptr;
    if (!options.stats_path.empty()) {
        stats_file = std::fopen(options.stats_path.c_str(), "w");
        if (stats_file == nullptr) {
            std::fprintf(stderr, "failed to open %s\n",
                         options.stats_path.c_str());
            return 1;
        }
    }
    ShardCoordinator* running = nullptr;
    std::map<std::string, uint64_t> streamed;  // source -> last index
    size_t ndjson_lines = 0;
    const auto run_start = std::chrono::steady_clock::now();

    // Shard deaths: one stderr obituary each, plus an NDJSON event
    // record on the stats stream (consumers skip records carrying an
    // "event" key when computing rates).
    coordinator_options.on_shard_death = [&](size_t shard,
                                             const std::string& cause) {
        std::fprintf(stderr, "chef_shard: shard %zu died: %s\n", shard,
                     cause.c_str());
        if (stats_file != nullptr) {
            chef::support::JsonWriter json;
            json.BeginObject();
            json.Key("event"), json.Value("shard_death");
            json.Key("shard"), json.Value(shard);
            json.Key("cause"), json.Value(cause);
            json.Key("t_seconds"),
                json.Value(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - run_start)
                               .count());
            json.EndObject();
            std::string line = json.Take();
            line += '\n';
            std::fwrite(line.data(), 1, line.size(), stats_file);
            std::fflush(stats_file);
        }
    };

    // The kill-one drill: SIGKILL the first shard to heartbeat. A
    // heartbeat only flows while RunBatch is still executing, so the
    // victim is provably mid-batch — the hard case, where requeue and
    // retained-gossip recovery must both engage.
    bool chaos_killed = false;
    if (options.chaos == "kill-one") {
        coordinator_options.on_heartbeat = [&](size_t shard) {
            if (chaos_killed || shard >= processes.size() ||
                processes[shard].pid < 0) {
                return;
            }
            chaos_killed = true;
            std::fprintf(stderr,
                         "chef_shard: chaos kill-one: SIGKILL shard %zu "
                         "(pid %d) on its first heartbeat\n",
                         shard, static_cast<int>(processes[shard].pid));
            ::kill(processes[shard].pid, SIGKILL);
        };
    }
    auto last_frame = std::chrono::steady_clock::now();
    bool first_frame = true;
    coordinator_options.on_series_update = [&](size_t shard_id) {
        const chef::obs::ClusterSeries& series = running->cluster_series();
        const std::string source = "shard" + std::to_string(shard_id);
        const std::vector<chef::obs::SeriesSample>* samples =
            series.SeriesFor(source);
        if (samples != nullptr) {
            uint64_t& rendered = streamed[source];
            for (const chef::obs::SeriesSample& sample : *samples) {
                if (sample.index <= rendered) {
                    continue;
                }
                rendered = sample.index;
                ++ndjson_lines;
                if (stats_file != nullptr) {
                    const std::string line =
                        chef::obs::RenderSeriesSampleNdjson(
                            series, source, sample, stats_window);
                    std::fwrite(line.data(), 1, line.size(), stats_file);
                }
            }
            if (stats_file != nullptr) {
                std::fflush(stats_file);
            }
        }
        if (options.monitor) {
            const auto now = std::chrono::steady_clock::now();
            if (first_frame ||
                now - last_frame >= std::chrono::milliseconds(250)) {
                first_frame = false;
                last_frame = now;
                const chef::obs::AttributionSnapshot attribution =
                    running->ClusterAttribution();
                const std::string frame = chef::obs::RenderMonitorFrame(
                    series, stats_window, &attribution);
                // Home, repaint, then clear from the cursor to the end
                // of the screen: clearing *after* the frame (ESC[0J)
                // instead of before it (ESC[2J) erases exactly the rows
                // a shrinking panel no longer covers, without leaving
                // stale lines below the new frame.
                std::fprintf(stderr, "\x1b[H%s\x1b[0J", frame.c_str());
            }
        }
    };

    ShardCoordinator coordinator(coordinator_options);
    running = &coordinator;
    std::string error;
    const bool ok = coordinator.Run(jobs, transports, &error);
    for (WorkerProcess& process : processes) {
        process.transport->Close();
        if (process.pid >= 0) {  // Dead shards were reaped by the probe.
            chef::shard::WaitWorkerProcess(process.pid);
        }
    }
    if (stats_file != nullptr) {
        std::fclose(stats_file);
    }
    if (options.monitor) {
        // One final frame from the complete series, then drop out of the
        // in-place redraw so subsequent stderr output scrolls normally.
        // Same clear-after-repaint as the live path, so a final frame
        // shorter than the last live one leaves no stale rows behind.
        const chef::obs::AttributionSnapshot attribution =
            coordinator.ClusterAttribution();
        const std::string frame = chef::obs::RenderMonitorFrame(
            coordinator.cluster_series(), stats_window, &attribution);
        std::fprintf(stderr, "\x1b[H%s\x1b[0J\n", frame.c_str());
    }
    if (!ok) {
        std::fprintf(stderr, "coordinator: %s\n", error.c_str());
        return 1;
    }

    const std::string report = coordinator.RenderMergedReport();
    if (!WriteFileOrComplain(options.report_path, report)) {
        return 1;
    }
    if (!options.trace_path.empty()) {
        // Streamed span-by-span rather than rendered whole in memory.
        std::string trace_error;
        if (!coordinator.WriteTraceFile(options.trace_path, &trace_error)) {
            std::fprintf(stderr, "%s\n", trace_error.c_str());
            return 1;
        }
    }
    std::string curves_csv;
    if (!options.curves_path.empty()) {
        curves_csv =
            chef::obs::RenderCoverageCurvesCsv(coordinator.cluster_series());
        if (!WriteFileOrComplain(options.curves_path, curves_csv)) {
            return 1;
        }
    }
    if (!options.series_path.empty() &&
        !WriteFileOrComplain(
            options.series_path,
            chef::obs::RenderClusterSeriesJson(
                coordinator.cluster_series()))) {
        return 1;
    }
    const chef::obs::AttributionSnapshot cluster_attribution =
        coordinator.ClusterAttribution();
    std::string attr_json;
    if (!options.attr_path.empty()) {
        chef::support::JsonWriter json;
        chef::obs::WriteAttributionSnapshot(json, cluster_attribution);
        attr_json = json.Take();
        if (!WriteFileOrComplain(options.attr_path, attr_json)) {
            return 1;
        }
    }
    std::string flame_stacks;
    if (!options.flame_path.empty()) {
        flame_stacks =
            chef::obs::RenderAttributionFoldedStacks(cluster_attribution);
        if (!WriteFileOrComplain(options.flame_path, flame_stacks)) {
            return 1;
        }
    }

    const ShardCoordinator::CrossShardStats& cross =
        coordinator.cross_shard();
    std::printf("chef_shard: %zu jobs over %zu worker processes\n",
                jobs.size(), options.num_workers);
    std::printf("  merged corpus: %zu entries (%llu cross-shard merge "
                "duplicates)\n",
                coordinator.corpus().size(),
                static_cast<unsigned long long>(cross.merge_duplicates));
    std::printf("  gossip: %llu messages, %llu fingerprints, %llu local "
                "rediscoveries suppressed, %llu jobs suppressed\n",
                static_cast<unsigned long long>(cross.gossip_messages),
                static_cast<unsigned long long>(
                    cross.fingerprints_gossiped),
                static_cast<unsigned long long>(
                    cross.remote_duplicate_hits),
                static_cast<unsigned long long>(cross.jobs_suppressed));
    if (coordinator.degraded()) {
        const ShardCoordinator::FaultStats& fault = coordinator.fault();
        std::printf("  fault: DEGRADED — %llu death(s), %llu jobs "
                    "requeued, %llu heartbeats missed, %llu respawn(s)\n",
                    static_cast<unsigned long long>(fault.deaths),
                    static_cast<unsigned long long>(fault.jobs_requeued),
                    static_cast<unsigned long long>(
                        fault.heartbeats_missed),
                    static_cast<unsigned long long>(fault.respawns));
    }
    std::printf("  report: %s\n", options.report_path.c_str());
    if (!options.trace_path.empty()) {
        std::printf("  trace: %s (%zu events)\n",
                    options.trace_path.c_str(),
                    coordinator.trace_events().size());
    }
    if (!options.stats_path.empty()) {
        std::printf("  stats: %s (%zu NDJSON samples)\n",
                    options.stats_path.c_str(), ndjson_lines);
    }
    if (!options.curves_path.empty()) {
        std::printf("  curves: %s\n", options.curves_path.c_str());
    }
    if (!options.series_path.empty()) {
        std::printf("  series: %s (%zu samples over %zu sources)\n",
                    options.series_path.c_str(),
                    coordinator.cluster_series().total_samples(),
                    coordinator.cluster_series().Sources().size());
    }
    if (!options.attr_path.empty() || !options.flame_path.empty()) {
        size_t locations = 0;
        for (const auto& [workload, rows] :
             cluster_attribution.workloads) {
            (void)workload;
            locations += rows.size();
        }
        if (!options.attr_path.empty()) {
            std::printf("  attribution: %s (%zu locations, %.3f solver "
                        "seconds attributed)\n",
                        options.attr_path.c_str(), locations,
                        cluster_attribution.SolverSecondsTotal());
        }
        if (!options.flame_path.empty()) {
            std::printf("  flame: %s\n", options.flame_path.c_str());
        }
    }

    if (!options.smoke) {
        return 0;
    }

    // --- Smoke assertions (the CI contract) ----------------------------
    int failures = 0;

    // 1. The merged report is strict JSON with the cross-shard dedup
    //    stats and per-shard sections present.
    chef::support::JsonValue parsed;
    std::string parse_error;
    if (!chef::support::ParseJson(report, &parsed, &parse_error)) {
        std::fprintf(stderr, "FAIL: merged report is not strict JSON: %s\n",
                     parse_error.c_str());
        ++failures;
    } else {
        const chef::support::JsonValue* cross_obj =
            parsed.Find("cross_shard");
        for (const char* key :
             {"fingerprints_gossiped", "remote_duplicate_hits",
              "jobs_suppressed", "merge_duplicates"}) {
            uint64_t value = 0;
            if (cross_obj == nullptr ||
                !cross_obj->GetUint64(key, &value)) {
                std::fprintf(stderr,
                             "FAIL: cross_shard.%s missing from the "
                             "merged report\n",
                             key);
                ++failures;
            }
        }
        const chef::support::JsonValue* shards_arr = parsed.Find("shards");
        if (shards_arr == nullptr ||
            shards_arr->items.size() != options.num_workers) {
            std::fprintf(stderr,
                         "FAIL: expected %zu per-shard stats sections\n",
                         options.num_workers);
            ++failures;
        }
        // Telemetry section: per-shard snapshots plus the cluster merge,
        // each with counters/histograms objects, and the cluster's
        // solver.queries equal to the sum over shards (MergeFrom sums
        // name-keyed counters, so a drift here means a shard's snapshot
        // was dropped or double-merged).
        const chef::support::JsonValue* telemetry =
            parsed.Find("telemetry");
        const chef::support::JsonValue* tele_shards =
            telemetry != nullptr ? telemetry->Find("shards") : nullptr;
        const chef::support::JsonValue* cluster =
            telemetry != nullptr ? telemetry->Find("cluster") : nullptr;
        if (tele_shards == nullptr ||
            tele_shards->items.size() != options.num_workers ||
            cluster == nullptr || cluster->Find("counters") == nullptr ||
            cluster->Find("histograms") == nullptr) {
            std::fprintf(stderr,
                         "FAIL: telemetry section missing per-shard or "
                         "cluster snapshots\n");
            ++failures;
        } else {
            // Dead shards never report, so their (gossiped, partial)
            // snapshots are excluded from the cluster merge: sum the
            // survivors only, and on a degraded run accept cluster >=
            // sum (requeue rounds from since-dead shards may have
            // merged work no surviving per-shard snapshot shows).
            uint64_t shard_queries = 0;
            for (size_t i = 0; i < tele_shards->items.size(); ++i) {
                if (i < coordinator.shards().size() &&
                    coordinator.shards()[i].dead) {
                    continue;
                }
                const chef::support::JsonValue& entry =
                    tele_shards->items[i];
                const chef::support::JsonValue* counters =
                    entry.Find("metrics") != nullptr
                        ? entry.Find("metrics")->Find("counters")
                        : nullptr;
                uint64_t value = 0;
                if (counters != nullptr) {
                    counters->GetUint64("solver.queries", &value);
                }
                shard_queries += value;
            }
            uint64_t cluster_queries = 0;
            cluster->Find("counters")->GetUint64("solver.queries",
                                                 &cluster_queries);
            const bool consistent =
                coordinator.degraded()
                    ? cluster_queries >= shard_queries
                    : cluster_queries == shard_queries;
            if (cluster_queries == 0 || !consistent) {
                std::fprintf(stderr,
                             "FAIL: cluster solver.queries %llu != "
                             "per-shard sum %llu (or zero)\n",
                             static_cast<unsigned long long>(
                                 cluster_queries),
                             static_cast<unsigned long long>(
                                 shard_queries));
                ++failures;
            }
        }
        // Attribution section: one table per shard plus the cluster
        // fold, always present (tables are empty when attribution is
        // off, never absent).
        const chef::support::JsonValue* attr_section =
            telemetry != nullptr ? telemetry->Find("attribution")
                                 : nullptr;
        const chef::support::JsonValue* attr_shards =
            attr_section != nullptr ? attr_section->Find("shards")
                                    : nullptr;
        if (attr_shards == nullptr ||
            attr_shards->items.size() != options.num_workers ||
            attr_section->Find("cluster") == nullptr) {
            std::fprintf(stderr,
                         "FAIL: telemetry.attribution missing per-shard "
                         "tables or the cluster fold\n");
            ++failures;
        }
        // Labeled solver-time views: total (aggregate work) and
        // max-shard (critical-path share) must both be present and
        // ordered total >= max.
        double solver_total = 0.0;
        double solver_max = 0.0;
        if (!parsed.GetDouble("solver_seconds_total", &solver_total) ||
            !parsed.GetDouble("solver_seconds_max_shard", &solver_max) ||
            solver_total + 1e-12 < solver_max) {
            std::fprintf(stderr,
                         "FAIL: solver_seconds_total/max_shard missing "
                         "or inconsistent\n");
            ++failures;
        }
    }

    // 1b. With tracing on: the trace file is strict JSON, and spans
    //     arrived from every worker shard (pids 1..N; pid 0 would be a
    //     coordinator-side tracer).
    if (!options.trace_path.empty()) {
        // Validate exactly what the streaming writer put on disk.
        std::string trace;
        chef::support::JsonValue trace_doc;
        std::string trace_error;
        if (!ReadFileOrComplain(options.trace_path, &trace)) {
            ++failures;
        } else if (!chef::support::ParseJson(trace, &trace_doc,
                                             &trace_error)) {
            std::fprintf(stderr,
                         "FAIL: trace is not strict JSON: %s\n",
                         trace_error.c_str());
            ++failures;
        } else {
            const chef::support::JsonValue* events =
                trace_doc.Find("traceEvents");
            std::vector<bool> seen(options.num_workers + 1, false);
            size_t spans = 0;
            if (events != nullptr) {
                for (const chef::support::JsonValue& event :
                     events->items) {
                    uint64_t pid = 0;
                    if (event.GetUint64("pid", &pid) &&
                        pid < seen.size()) {
                        seen[pid] = true;
                        ++spans;
                    }
                }
            }
            // A dead shard's spans die with it (they ship in the final
            // result), so only surviving shards owe spans.
            bool all_shards = true;
            for (size_t shard = 1; shard <= options.num_workers;
                 ++shard) {
                if (shard - 1 < coordinator.shards().size() &&
                    coordinator.shards()[shard - 1].dead) {
                    continue;
                }
                all_shards = all_shards && seen[shard];
            }
            if (events == nullptr || spans == 0 || !all_shards) {
                std::fprintf(stderr,
                             "FAIL: trace lacks spans from every worker "
                             "shard (%zu spans)\n",
                             spans);
                ++failures;
            } else {
                std::printf("  smoke: trace has %zu spans from all %zu "
                            "shards\n",
                            spans, options.num_workers);
            }
        }
    }

    // 1c. With --stats-out: the stream on disk is valid NDJSON — every
    //     line strict-parses with the per-sample schema — and every live
    //     shard's samples arrived: RunBatch records a start and a final
    //     sample plus one per elapsed interval, so a shard whose batch
    //     ran wall_seconds owes 2 + max(0, floor(wall / interval) - 1)
    //     (one interval of slack for a tick racing the final sample).
    if (!options.stats_path.empty()) {
        std::string ndjson;
        size_t valid_lines = 0;
        size_t event_lines = 0;
        bool malformed = false;
        if (!ReadFileOrComplain(options.stats_path, &ndjson)) {
            ++failures;
        } else {
            size_t begin = 0;
            while (begin < ndjson.size()) {
                size_t end = ndjson.find('\n', begin);
                if (end == std::string::npos) {
                    end = ndjson.size();
                }
                const std::string line = ndjson.substr(begin, end - begin);
                begin = end + 1;
                if (line.empty()) {
                    continue;
                }
                chef::support::JsonValue sample;
                std::string sample_error;
                if (!chef::support::ParseJson(line, &sample,
                                              &sample_error)) {
                    malformed = true;
                    std::fprintf(stderr,
                                 "FAIL: invalid NDJSON sample: %.120s\n",
                                 line.c_str());
                    break;
                }
                // Fault events share the stream with samples; they
                // carry "event" instead of the sample schema.
                if (sample.Find("event") != nullptr) {
                    if (sample.Find("shard") == nullptr ||
                        sample.Find("cause") == nullptr) {
                        malformed = true;
                        std::fprintf(
                            stderr,
                            "FAIL: invalid NDJSON event: %.120s\n",
                            line.c_str());
                        break;
                    }
                    ++event_lines;
                    continue;
                }
                if (sample.Find("source") == nullptr ||
                    sample.Find("index") == nullptr ||
                    sample.Find("t_seconds") == nullptr ||
                    sample.Find("jobs_per_second") == nullptr ||
                    sample.Find("fingerprints_per_second") == nullptr ||
                    sample.Find("cluster") == nullptr) {
                    malformed = true;
                    std::fprintf(stderr,
                                 "FAIL: invalid NDJSON sample: %.120s\n",
                                 line.c_str());
                    break;
                }
                ++valid_lines;
            }
            // A degraded run can cut sample volume (a shard died early),
            // but every shard death must have left an event record.
            // --stats-out always sets a positive sampling interval.
            const double interval =
                coordinator_options.service.metrics_interval_seconds;
            size_t need_samples = 1;
            if (!coordinator.degraded()) {
                need_samples = 0;
                for (const ShardCoordinator::ShardOutcome& shard :
                     coordinator.shards()) {
                    if (!shard.dead) {
                        const double intervals =
                            std::floor(shard.stats.wall_seconds / interval);
                        need_samples += 2 + static_cast<size_t>(
                                                std::max(0.0, intervals - 1));
                    }
                }
            }
            const bool events_accounted =
                event_lines >=
                static_cast<size_t>(coordinator.fault().deaths);
            if (malformed || valid_lines < need_samples ||
                !events_accounted) {
                std::fprintf(stderr,
                             "FAIL: --stats-out produced %zu valid NDJSON "
                             "samples + %zu events (need >= %zu samples, "
                             ">= %llu events)\n",
                             valid_lines, event_lines, need_samples,
                             static_cast<unsigned long long>(
                                 coordinator.fault().deaths));
                ++failures;
            } else {
                std::printf("  smoke: %zu valid NDJSON samples + %zu "
                            "event records streamed\n",
                            valid_lines, event_lines);
            }
        }
    }

    // 1d. With --curves-out: the cluster "__all__" coverage curve is
    //     monotone and ends exactly at the report's cluster telemetry
    //     totals (the recorder's final sample is taken after all batch
    //     accounting, so the curve and the report must agree).
    if (!options.curves_path.empty() && coordinator.degraded()) {
        // A dead shard's curve ends at its last gossiped sample while
        // the cluster totals include survivors' reruns; the tail-match
        // contract only holds for undisturbed runs.
        std::printf("  smoke: degraded run — skipping the coverage-CSV "
                    "tail match\n");
    } else if (!options.curves_path.empty()) {
        uint64_t last_jobs = 0;
        uint64_t last_fp = 0;
        bool monotone = true;
        size_t all_rows = 0;
        size_t begin = curves_csv.find('\n');  // Skip the header.
        begin = begin == std::string::npos ? curves_csv.size() : begin + 1;
        while (begin < curves_csv.size()) {
            size_t end = curves_csv.find('\n', begin);
            if (end == std::string::npos) {
                end = curves_csv.size();
            }
            const std::string row = curves_csv.substr(begin, end - begin);
            begin = end + 1;
            if (row.compare(0, 8, "__all__,") != 0) {
                continue;
            }
            unsigned long long jobs = 0;
            unsigned long long fp = 0;
            double t = 0.0;
            if (std::sscanf(row.c_str(), "__all__,%lf,%llu,%llu", &t,
                            &jobs, &fp) == 3) {
                monotone = monotone && jobs >= last_jobs && fp >= last_fp;
                last_jobs = jobs;
                last_fp = fp;
                ++all_rows;
            }
        }
        uint64_t cluster_jobs = 0;
        uint64_t cluster_fp = 0;
        const chef::support::JsonValue* telemetry = parsed.Find("telemetry");
        const chef::support::JsonValue* cluster =
            telemetry != nullptr ? telemetry->Find("cluster") : nullptr;
        const chef::support::JsonValue* counters =
            cluster != nullptr ? cluster->Find("counters") : nullptr;
        if (counters != nullptr) {
            counters->GetUint64("service.jobs_finished", &cluster_jobs);
            counters->GetUint64("corpus.fingerprints_new", &cluster_fp);
        }
        if (all_rows == 0 || !monotone || last_jobs != cluster_jobs ||
            last_fp != cluster_fp) {
            std::fprintf(stderr,
                         "FAIL: coverage CSV disagrees with the report "
                         "(%zu rows, monotone=%d, jobs %llu vs %llu, "
                         "fingerprints %llu vs %llu)\n",
                         all_rows, monotone ? 1 : 0,
                         static_cast<unsigned long long>(last_jobs),
                         static_cast<unsigned long long>(cluster_jobs),
                         static_cast<unsigned long long>(last_fp),
                         static_cast<unsigned long long>(cluster_fp));
            ++failures;
        } else {
            std::printf("  smoke: coverage CSV matches the report "
                        "(%llu jobs, %llu fingerprints over %zu points)\n",
                        static_cast<unsigned long long>(last_jobs),
                        static_cast<unsigned long long>(last_fp),
                        all_rows);
        }
    }

    // 1e. With --attr-out: the attribution table on disk is strict JSON
    //     with at least one charged location, its cluster solver-seconds
    //     total agrees with the report's solver_seconds_total (both sides
    //     measure the very same Solve calls — the profiler charges the
    //     ScopedTimer's own elapsed reading — so only double-vs-nanos
    //     rounding separates them), and the folded-stack file is
    //     non-empty.
    if (!options.attr_path.empty()) {
        chef::support::JsonValue attr_doc;
        std::string attr_error;
        size_t attr_locations = 0;
        if (!chef::support::ParseJson(attr_json, &attr_doc,
                                      &attr_error)) {
            std::fprintf(stderr,
                         "FAIL: attribution table is not strict JSON: "
                         "%s\n",
                         attr_error.c_str());
            ++failures;
        } else {
            const chef::support::JsonValue* workloads =
                attr_doc.Find("workloads");
            if (workloads != nullptr) {
                for (const chef::support::JsonValue& group :
                     workloads->items) {
                    const chef::support::JsonValue* locations =
                        group.Find("locations");
                    attr_locations +=
                        locations != nullptr ? locations->items.size()
                                             : 0;
                }
            }
            if (attr_locations == 0) {
                std::fprintf(stderr,
                             "FAIL: attribution table charged no "
                             "locations\n");
                ++failures;
            }
        }
        double report_solver_total = 0.0;
        parsed.GetDouble("solver_seconds_total", &report_solver_total);
        const double attr_solver_total =
            cluster_attribution.SolverSecondsTotal();
        const double tolerance = 0.05 * report_solver_total + 0.05;
        // A dead shard's stats never merge but its last gossiped table
        // may linger: the totals only owe agreement on a clean run.
        if (!coordinator.degraded() &&
            std::abs(attr_solver_total - report_solver_total) >
                tolerance) {
            std::fprintf(stderr,
                         "FAIL: attributed solver seconds %.6f disagree "
                         "with solver_seconds_total %.6f (tolerance "
                         "%.6f)\n",
                         attr_solver_total, report_solver_total,
                         tolerance);
            ++failures;
        } else {
            std::printf("  smoke: attribution table has %zu locations; "
                        "%.3fs attributed vs %.3fs reported\n",
                        attr_locations, attr_solver_total,
                        report_solver_total);
        }
    }
    if (!options.flame_path.empty()) {
        if (flame_stacks.empty() ||
            flame_stacks.find(';') == std::string::npos ||
            flame_stacks.back() != '\n') {
            std::fprintf(stderr,
                         "FAIL: folded-stack file is empty or malformed\n");
            ++failures;
        } else {
            size_t stack_lines = 0;
            for (const char c : flame_stacks) {
                stack_lines += c == '\n' ? 1 : 0;
            }
            std::printf("  smoke: %zu folded stacks written\n",
                        stack_lines);
        }
    }

    // 2. The multi-process merged corpus covers a single-shard run of
    //    the same batch (identical global-index seeds make the corpora
    //    comparable key-for-key).
    ShardCoordinator::Options single_options = CoordinatorOptions(options);
    single_options.service.plateau_policy = {};  // Run every job.
    ShardCoordinator single(single_options);
    const bool baseline_ok =
        chef::shard::RunLoopbackShards(&single, jobs, 1, &error);
    if (!baseline_ok) {
        std::fprintf(stderr, "FAIL: single-shard baseline: %s\n",
                     error.c_str());
        ++failures;
    } else if (!options.plateau) {
        const std::vector<TestCorpus::Key> merged_keys =
            coordinator.corpus().Keys();
        const std::vector<TestCorpus::Key> single_keys =
            single.corpus().Keys();
        if (!CoversCorpus(merged_keys, single_keys)) {
            std::fprintf(stderr,
                         "FAIL: merged corpus (%zu keys) does not cover "
                         "the single-shard corpus (%zu keys)\n",
                         merged_keys.size(), single_keys.size());
            ++failures;
        } else {
            std::printf("  smoke: merged corpus covers the single-shard "
                        "corpus (%zu keys)\n",
                        single_keys.size());
        }
    }

    // 2b. Intra-session parallelism parity: deterministic round mode
    //    must produce exactly the corpus the same batch does at another
    //    round-mode width (sessions are bounded by max_runs, so their
    //    results are invariant in any thread count >= 2).
    if (baseline_ok && !options.plateau && options.engine_threads > 1) {
        const uint32_t baseline_threads =
            ParityBaselineThreads(options.engine_threads);
        ShardCoordinator::Options baseline_options =
            CoordinatorOptions(options);
        baseline_options.service.plateau_policy = {};
        baseline_options.service.engine_threads = baseline_threads;
        ShardCoordinator baseline(baseline_options);
        if (!chef::shard::RunLoopbackShards(&baseline, jobs, 1, &error)) {
            std::fprintf(stderr,
                         "FAIL: engine-threads=%u parity baseline: %s\n",
                         baseline_threads, error.c_str());
            ++failures;
        } else {
            const std::vector<TestCorpus::Key> wide_keys =
                single.corpus().Keys();
            const std::vector<TestCorpus::Key> baseline_keys =
                baseline.corpus().Keys();
            if (!CoversCorpus(wide_keys, baseline_keys) ||
                !CoversCorpus(baseline_keys, wide_keys)) {
                std::fprintf(stderr,
                             "FAIL: engine-threads corpus parity broken "
                             "— %u threads: %zu keys vs %u threads: %zu "
                             "keys\n",
                             options.engine_threads, wide_keys.size(),
                             baseline_threads, baseline_keys.size());
                ++failures;
            } else {
                std::printf("  smoke: engine-threads corpus parity holds "
                            "(%u vs %u threads, %zu keys)\n",
                            options.engine_threads, baseline_threads,
                            baseline_keys.size());
            }
            // 2c. Attribution thread parity: every count column of the
            //    table (steps, forks, runs, fingerprints, ...) is
            //    charged on serial commit paths, so deterministic round
            //    mode must produce *identical* counts at any thread
            //    width. Solver wall-nanos are real time and excluded
            //    (AttributionCountsEqual compares counts only).
            if (!chef::obs::AttributionCountsEqual(
                    single.ClusterAttribution(),
                    baseline.ClusterAttribution())) {
                std::fprintf(stderr,
                             "FAIL: attribution counts differ between "
                             "%u and %u engine threads\n",
                             options.engine_threads, baseline_threads);
                ++failures;
            } else {
                std::printf("  smoke: attribution tables identical at "
                            "%u vs %u threads (count columns)\n",
                            options.engine_threads, baseline_threads);
            }
        }
    }

    // 3. Chaos contract: the injected kill must have actually degraded
    //    the batch (death + requeue recorded, report flagged), and the
    //    recovery must be *lossless* — the merged corpus key set equals
    //    the undisturbed single-shard run's exactly, in both directions.
    if (!options.chaos.empty()) {
        const ShardCoordinator::FaultStats& fault = coordinator.fault();
        bool report_degraded = false;
        parsed.GetBool("degraded", &report_degraded);
        if (!chaos_killed || !coordinator.degraded() ||
            !report_degraded || fault.deaths < 1) {
            std::fprintf(stderr,
                         "FAIL: chaos kill-one did not degrade the batch "
                         "(killed=%d, degraded=%d, report=%d, deaths="
                         "%llu)\n",
                         chaos_killed ? 1 : 0,
                         coordinator.degraded() ? 1 : 0,
                         report_degraded ? 1 : 0,
                         static_cast<unsigned long long>(fault.deaths));
            ++failures;
        }
        if (fault.jobs_requeued < 1) {
            std::fprintf(stderr,
                         "FAIL: chaos kill-one left no jobs to requeue "
                         "(victim killed too late?)\n");
            ++failures;
        }
        bool victim_attributed = false;
        for (const ShardCoordinator::ShardOutcome& shard :
             coordinator.shards()) {
            victim_attributed =
                victim_attributed || !shard.death_cause.empty();
        }
        if (!victim_attributed) {
            std::fprintf(stderr,
                         "FAIL: no shard carries a death cause\n");
            ++failures;
        }
        if (baseline_ok && !options.plateau) {
            const std::vector<TestCorpus::Key> merged_keys =
                coordinator.corpus().Keys();
            const std::vector<TestCorpus::Key> single_keys =
                single.corpus().Keys();
            if (!CoversCorpus(merged_keys, single_keys) ||
                !CoversCorpus(single_keys, merged_keys)) {
                std::fprintf(stderr,
                             "FAIL: chaos corpus parity broken — merged "
                             "%zu keys vs undisturbed %zu keys\n",
                             merged_keys.size(), single_keys.size());
                ++failures;
            } else {
                std::printf("  smoke: chaos corpus parity holds (%zu "
                            "keys, %llu jobs requeued, %llu death(s))\n",
                            merged_keys.size(),
                            static_cast<unsigned long long>(
                                fault.jobs_requeued),
                            static_cast<unsigned long long>(
                                fault.deaths));
            }
        }
    }

    if (failures > 0) {
        std::fprintf(stderr, "chef_shard --smoke: %d failure(s)\n",
                     failures);
        return 1;
    }
    std::printf("  smoke: OK\n");
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    CliOptions options;
    if (!ParseArgs(argc, argv, &options)) {
        return 2;
    }
    if (options.worker) {
        return RunWorker();
    }
    return RunCoordinator(options, argv[0]);
}
