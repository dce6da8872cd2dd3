#ifndef CHEF_SHARD_WIRE_H_
#define CHEF_SHARD_WIRE_H_

/// \file
/// JSON wire format for the coordinator/worker shard protocol.
///
/// Every message is one line of strict RFC-8259 JSON (newline-delimited
/// framing; see shard/transport.h), built and parsed with support/json.h
/// so the wire obeys the same grammar the report contract promises. What
/// crosses the wire is the paper's "compact canonical artifacts" idea
/// applied to distribution: job descriptions, corpus fingerprint deltas,
/// and per-workload yield snapshots — never engine state or expression
/// DAGs.
///
/// Only the declarative subset of a JobSpec is serializable: callbacks
/// (Engine stop_requested hooks) and shared pointers (a pre-wired
/// solver_options.shared_cache) cannot cross a process boundary, and
/// CheckSerializable rejects them with a clear error at submit time
/// rather than silently dropping behavior. 64-bit identities (seeds,
/// fingerprints) travel as "0x..." hex strings; non-finite doubles
/// serialize as null and decode as 0.0 (support/json.h).

#include <cstdint>
#include <string>
#include <vector>

#include "obs/attribution.h"
#include "obs/obs.h"
#include "obs/timeseries.h"
#include "service/corpus.h"
#include "service/job.h"
#include "service/service.h"

namespace chef::shard {

/// Bumped on incompatible wire changes; the coordinator refuses workers
/// announcing a different version instead of mis-decoding mid-batch.
/// v2: telemetry config in kRun, optional telemetry snapshots on
/// kGossip, telemetry + trace events in kResult.
constexpr int kProtocolVersion = 2;

/// Bumped on *compatible* additions within a major version; peers never
/// refuse a different minor. v2.1: optional "series" sample arrays on
/// kGossip and kResult (time-series telemetry), optional rate-mode
/// plateau fields in kRun. v2.2: optional "heartbeat_interval_seconds"
/// in kRun and the kHeartbeat message — a worker only emits heartbeats
/// when the run request asked for them, so a v2.1 coordinator (which
/// never asks) never sees the new message type. A v2.0 peer ignores
/// unknown optional fields and omits them on send; decoders default
/// every v2.1/v2.2 field. v2.3: optional "engine_threads" in the kRun
/// service config and optional "exploration_threads" per job spec
/// (intra-session parallel exploration); both omitted at their default
/// of 1, so a single-threaded run encodes byte-identically to v2.2.
/// v2.4: optional "attribution" per-location cost/yield snapshot on
/// kGossip and kResult (obs/attribution.h); omitted when the sender has
/// no table, so a run without attribution encodes byte-identically to
/// v2.3, and pre-v2.4 decoders ignore the key when present. v2.5:
/// optional "core_budget" in the kRun service config; omitted at its
/// default of 0 (the worker's hardware concurrency).
constexpr int kProtocolVersionMinor = 5;

enum class MessageType {
    kHello,      ///< worker -> coordinator: ready, protocol version.
    kRun,        ///< coordinator -> worker: run this batch partition.
    kGossip,     ///< both directions: corpus fingerprint delta + yields.
    kHeartbeat,  ///< worker -> coordinator: liveness + streamed results.
    kResult,     ///< worker -> coordinator: results, stats, local corpus.
    kShutdown,   ///< coordinator -> worker: exit cleanly.
    kError,      ///< either: fatal protocol/setup failure, with reason.
};

const char* MessageTypeName(MessageType type);

/// One job with its *global* batch index. The worker runs jobs in local
/// order but reports results under global indices, and the coordinator
/// pre-derives each job's exact seed from the global index — so the
/// partition cannot change any per-job result (see JobSpec::exact_seed).
struct WireJob {
    size_t job_index = 0;
    service::JobSpec spec;
};

/// The serializable subset of ExplorationService::Options. Streaming
/// sinks (on_job_event, event_queue) are coordinator-side concerns and
/// never cross the wire.
struct ServiceConfig {
    uint64_t seed = 1;
    size_t num_workers = 1;
    double max_total_seconds = 0.0;
    bool record_corpus_inputs = true;
    bool share_solver_cache = false;
    service::SchedulePolicy schedule_policy =
        service::SchedulePolicy::kYieldPriority;
    service::PlateauPolicy plateau_policy;
    /// Workers run their batch with phase tracing on and ship the spans
    /// back in the result message (obs contexts themselves never cross
    /// the wire — each worker builds its own registry/tracer).
    bool tracing = false;
    /// Cadence for telemetry snapshots piggybacked on gossip (and for
    /// local kMetrics events); 0 means final-result telemetry only.
    double metrics_interval_seconds = 0.0;
    /// v2.2: cadence for worker heartbeats while a batch runs; 0 (the
    /// pre-v2.2 behavior) disables them. Heartbeats double as the
    /// streamed-result channel: each one carries the jobs completed
    /// since the previous beat, so the coordinator can requeue only the
    /// genuinely unfinished remainder when the shard later dies.
    double heartbeat_interval_seconds = 0.0;
    /// v2.3: default intra-session exploration threads per job on the
    /// worker (clamped there against its core budget); 1 (the pre-v2.3
    /// behavior) keeps sessions single-threaded.
    uint32_t engine_threads = 1;
    /// v2.5: the worker's core budget for clamping engine_threads grants
    /// (ExplorationService::Options::core_budget); 0 (the pre-v2.5
    /// behavior) means the worker's hardware concurrency.
    size_t core_budget = 0;

    service::ExplorationService::Options ToServiceOptions() const;
    static ServiceConfig FromServiceOptions(
        const service::ExplorationService::Options& options);
};

/// coordinator -> worker: the shard's partition of the batch.
struct RunRequest {
    size_t shard_id = 0;
    size_t num_shards = 1;
    ServiceConfig service;
    std::vector<WireJob> jobs;
};

/// worker -> coordinator while a batch runs (v2.2, only when the run
/// request set heartbeat_interval_seconds > 0). Liveness signal plus
/// the completed results since the previous beat, already remapped to
/// global job indices. The worker's pump sends the covering corpus
/// gossip delta *before* the heartbeat on the same ordered transport,
/// so any job a received heartbeat lists has its discoveries'
/// fingerprints already at the coordinator — the invariant that keeps
/// the corpus complete when the shard dies after the beat.
struct HeartbeatMessage {
    size_t shard_id = 0;
    /// Monotonic per-run beat counter (diagnostic only).
    uint64_t sequence = 0;
    std::vector<service::JobResult> results;
};

/// worker -> coordinator at batch end. `corpus` carries the shard's
/// *local-origin* entries in full (inputs included) plus its local yield
/// view; gossip-seeded remote entries are excluded — the discovering
/// shard reports those, so the union over shards has no echoes.
struct ResultMessage {
    size_t shard_id = 0;
    service::ServiceStats stats;
    std::vector<service::JobResult> results;
    service::TestCorpus::Delta corpus;
    /// Cross-shard dedup telemetry (see TestCorpus): gossip entries
    /// merged in, and local discoveries suppressed by them.
    size_t remote_entries = 0;
    size_t remote_duplicate_hits = 0;
    /// Final metrics snapshot of the shard's run (always present; empty
    /// when the worker recorded nothing).
    obs::MetricsSnapshot telemetry;
    /// Completed trace spans, pid-stamped shard_id + 1 (present only
    /// when the run request asked for tracing).
    std::vector<obs::TraceEvent> trace;
    /// v2.1: time-series samples not yet shipped via gossip (the tail of
    /// the worker's recorder). Empty from v2.0 workers or when the run
    /// disabled the metrics interval.
    std::vector<obs::SeriesSample> series;
    /// v2.4: the shard's final per-location attribution table. Empty
    /// from pre-v2.4 workers or when the run disabled attribution.
    obs::AttributionSnapshot attribution;
};

/// One decoded message. Tagged union as plain struct: only the payload
/// matching `type` is meaningful.
struct Message {
    MessageType type = MessageType::kError;
    int protocol_version = 0;                 ///< kHello.
    /// kHello: minor protocol revision; 0 from pre-v2.1 peers that
    /// never announce one.
    int protocol_minor = 0;
    RunRequest run;                           ///< kRun.
    service::TestCorpus::Delta gossip;        ///< kGossip.
    /// kGossip: live telemetry piggybacked on the delta (worker ->
    /// coordinator only, at the configured metrics interval).
    bool has_telemetry = false;
    obs::MetricsSnapshot telemetry;
    /// kGossip/kResult (v2.1): incremental time-series samples from the
    /// sender's recorder; empty from v2.0 peers.
    std::vector<obs::SeriesSample> series;
    /// kGossip (v2.4): cumulative attribution table piggybacked on the
    /// delta at the metrics cadence. Replace-by-latest at the receiver
    /// (each snapshot supersedes the previous one from that shard), so
    /// redelivery is idempotent. For kResult the table lives in
    /// `result.attribution`.
    bool has_attribution = false;
    obs::AttributionSnapshot attribution;
    HeartbeatMessage heartbeat;               ///< kHeartbeat.
    ResultMessage result;                     ///< kResult.
    std::string error;                        ///< kError.
};

/// True iff the spec can cross a process boundary. On failure fills
/// \p why with which field is non-serializable and what to use instead.
bool CheckSerializable(const service::JobSpec& spec, std::string* why);

std::string EncodeHello();
std::string EncodeRun(const RunRequest& request);
/// Gossip is the compact form of a delta: per-workload fingerprint
/// lists and the yield snapshot — no outcomes or inputs. A worker may
/// piggyback a live metrics snapshot (\p telemetry non-null) and/or
/// incremental time-series samples (\p series non-null and non-empty)
/// so the coordinator's cluster view stays current mid-batch, and/or a
/// cumulative attribution table (\p attribution non-null and non-empty;
/// v2.4).
std::string EncodeGossip(
    const service::TestCorpus::Delta& delta,
    const obs::MetricsSnapshot* telemetry = nullptr,
    const std::vector<obs::SeriesSample>* series = nullptr,
    const obs::AttributionSnapshot* attribution = nullptr);
std::string EncodeHeartbeat(const HeartbeatMessage& heartbeat);
std::string EncodeResult(const ResultMessage& result);
std::string EncodeShutdown();
std::string EncodeError(const std::string& reason);

/// Decodes any message type. Returns false (with \p error) on malformed
/// JSON, unknown type, or missing/mistyped fields.
bool DecodeMessage(const std::string& line, Message* message,
                   std::string* error);

}  // namespace chef::shard

#endif  // CHEF_SHARD_WIRE_H_
