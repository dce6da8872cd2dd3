#include "obs/attribution.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <vector>

#include "support/json.h"

namespace chef::obs {

namespace {

/// Row column charged by each CounterKind, with its JSON key. Merging,
/// comparison and serialization all walk this table.
struct CounterColumn {
    const char* name;
    uint64_t AttributionRow::*member;
};
constexpr CounterColumn kCounterColumns[] = {
    {"solver_nanos", &AttributionRow::solver_nanos},
    {"solver_queries", &AttributionRow::solver_queries},
    {"steps", &AttributionRow::steps},
    {"forks", &AttributionRow::forks},
    {"assume_failures", &AttributionRow::assume_failures},
    {"new_fingerprints", &AttributionRow::new_fingerprints},
    {"runs", &AttributionRow::runs},
    {"infeasible", &AttributionRow::infeasible},
};
static_assert(std::size(kCounterColumns) ==
              AttributionProfiler::kCounterKinds);

thread_local uint64_t t_ambient_hlpc = 0;

}  // namespace

// ---------------------------------------------------------------------------
// AttributionSnapshot

void
AttributionSnapshot::MergeFrom(const AttributionSnapshot& other)
{
    for (const auto& [workload, table] : other.workloads) {
        std::map<uint64_t, AttributionRow>& mine = workloads[workload];
        for (const auto& [hl_pc, row] : table) {
            AttributionRow& target = mine[hl_pc];
            for (const CounterColumn& column : kCounterColumns) {
                target.*column.member += row.*column.member;
            }
            // min over recorded parents: a pure function of the operand
            // set, so merge order cannot change the result.
            target.parent = std::min(target.parent, row.parent);
        }
    }
}

double
AttributionSnapshot::SolverSecondsTotal() const
{
    uint64_t nanos = 0;
    for (const auto& [workload, table] : workloads) {
        (void)workload;
        for (const auto& [hl_pc, row] : table) {
            (void)hl_pc;
            nanos += row.solver_nanos;
        }
    }
    return static_cast<double>(nanos) / 1e9;
}

uint64_t
AttributionSnapshot::NewFingerprintsTotal() const
{
    uint64_t total = 0;
    for (const auto& [workload, table] : workloads) {
        (void)workload;
        for (const auto& [hl_pc, row] : table) {
            (void)hl_pc;
            total += row.new_fingerprints;
        }
    }
    return total;
}

bool
AttributionCountsEqual(const AttributionSnapshot& a,
                       const AttributionSnapshot& b)
{
    if (a.workloads.size() != b.workloads.size()) {
        return false;
    }
    for (const auto& [workload, table] : a.workloads) {
        const auto other_it = b.workloads.find(workload);
        if (other_it == b.workloads.end() ||
            other_it->second.size() != table.size()) {
            return false;
        }
        for (const auto& [hl_pc, row] : table) {
            const auto row_it = other_it->second.find(hl_pc);
            if (row_it == other_it->second.end()) {
                return false;
            }
            const AttributionRow& other = row_it->second;
            for (const CounterColumn& column : kCounterColumns) {
                if (column.member != &AttributionRow::solver_nanos &&
                    row.*column.member != other.*column.member) {
                    return false;
                }
            }
        }
    }
    return true;
}

// ---------------------------------------------------------------------------
// AttributionProfiler

AttributionProfiler::AttributionProfiler(std::string workload)
    : workload_(std::move(workload))
{
}

void
AttributionProfiler::Charge(uint64_t hl_pc, CounterKind kind,
                            uint64_t delta)
{
    rows_[hl_pc].*kCounterColumns[kind].member += delta;
}

void
AttributionProfiler::ChargeWithParent(uint64_t hl_pc, uint64_t parent,
                                      CounterKind kind, uint64_t delta)
{
    AttributionRow& row = rows_[hl_pc];
    if (row.parent == kAttributionNoParent && parent != hl_pc) {
        row.parent = parent;
    }
    row.*kCounterColumns[kind].member += delta;
}

void
AttributionProfiler::ChargeSolver(uint64_t nanos)
{
    AttributionRow& row = rows_[t_ambient_hlpc];
    row.solver_nanos += nanos;
    ++row.solver_queries;
}

AttributionSnapshot
AttributionProfiler::Snapshot() const
{
    AttributionSnapshot snapshot;
    if (!rows_.empty()) {
        snapshot.workloads[workload_].insert(rows_.begin(), rows_.end());
    }
    return snapshot;
}

// ---------------------------------------------------------------------------
// ScopedLocation

ScopedLocation::ScopedLocation(uint64_t hl_pc) : saved_(t_ambient_hlpc)
{
    t_ambient_hlpc = hl_pc;
}

ScopedLocation::~ScopedLocation()
{
    t_ambient_hlpc = saved_;
}

uint64_t
CurrentAmbientLocation()
{
    return t_ambient_hlpc;
}

// ---------------------------------------------------------------------------
// Frontier introspection

size_t
FrontierSnapshot::DepthBucket(uint32_t depth)
{
    size_t bucket = 0;
    uint64_t value = static_cast<uint64_t>(depth) + 1;
    while (value > 1 && bucket + 1 < kFrontierDepthBuckets) {
        value >>= 1;
        ++bucket;
    }
    return bucket;
}

// ---------------------------------------------------------------------------
// Serialization and rendering

void
WriteAttributionSnapshot(support::JsonWriter& json,
                         const AttributionSnapshot& snapshot)
{
    json.BeginObject();
    json.Key("workloads"), json.BeginArray();
    for (const auto& [workload, table] : snapshot.workloads) {
        json.BeginObject();
        json.Key("workload"), json.Value(workload);
        json.Key("locations"), json.BeginArray();
        for (const auto& [hl_pc, row] : table) {
            json.BeginObject();
            json.Key("hl_pc"), json.HexValue(hl_pc);
            if (row.parent != kAttributionNoParent) {
                json.Key("parent"), json.HexValue(row.parent);
            }
            for (const CounterColumn& column : kCounterColumns) {
                json.Key(column.name), json.Value(row.*column.member);
            }
            json.EndObject();
        }
        json.EndArray();
        json.EndObject();
    }
    json.EndArray();
    json.EndObject();
}

bool
DecodeAttributionSnapshot(const support::JsonValue& object,
                          AttributionSnapshot* snapshot,
                          std::string* error)
{
    snapshot->workloads.clear();
    const support::JsonValue* workloads = object.Find("workloads");
    if (workloads == nullptr ||
        workloads->kind != support::JsonValue::Kind::kArray) {
        *error = "attribution: missing workloads array";
        return false;
    }
    for (const support::JsonValue& entry : workloads->items) {
        std::string workload;
        if (!entry.GetString("workload", &workload)) {
            *error = "attribution: workload entry without a name";
            return false;
        }
        const support::JsonValue* locations = entry.Find("locations");
        if (locations == nullptr ||
            locations->kind != support::JsonValue::Kind::kArray) {
            *error = "attribution: workload entry without locations";
            return false;
        }
        std::map<uint64_t, AttributionRow>& table =
            snapshot->workloads[workload];
        for (const support::JsonValue& location : locations->items) {
            uint64_t hl_pc = 0;
            if (!location.GetUint64("hl_pc", &hl_pc)) {
                *error = "attribution: location without hl_pc";
                return false;
            }
            AttributionRow& row = table[hl_pc];
            location.GetUint64("parent", &row.parent);
            for (const CounterColumn& column : kCounterColumns) {
                location.GetUint64(column.name, &(row.*column.member));
            }
        }
    }
    return true;
}

std::string
RenderAttributionFoldedStacks(const AttributionSnapshot& snapshot)
{
    std::string out;
    char buffer[64];
    for (const auto& [workload, table] : snapshot.workloads) {
        for (const auto& [hl_pc, row] : table) {
            const uint64_t value =
                row.steps != 0 ? row.steps : row.TotalCharges();
            if (value == 0) {
                continue;
            }
            // Discovery-parent chain, leaf to root; cycle-guarded by
            // the membership scan, depth-capped by the chain size.
            std::vector<uint64_t> chain;
            uint64_t current = hl_pc;
            while (chain.size() < 64) {
                chain.push_back(current);
                const auto it = table.find(current);
                if (it == table.end() ||
                    it->second.parent == kAttributionNoParent) {
                    break;
                }
                const uint64_t parent = it->second.parent;
                if (std::find(chain.begin(), chain.end(), parent) !=
                    chain.end()) {
                    break;
                }
                current = parent;
            }
            out += workload;
            for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
                std::snprintf(buffer, sizeof(buffer), ";0x%" PRIx64, *it);
                out += buffer;
            }
            std::snprintf(buffer, sizeof(buffer), " %" PRIu64 "\n",
                          value);
            out += buffer;
        }
    }
    return out;
}

namespace {

struct HotRow {
    const std::string* workload;
    uint64_t hl_pc;
    const AttributionRow* row;
};

void
AppendHotTable(std::string* out, const std::vector<HotRow>& rows,
               size_t top_n)
{
    char line[192];
    std::snprintf(line, sizeof(line),
                  "  %-18s %-12s %9s %8s %6s %6s %6s %12s\n", "workload",
                  "hl_pc", "solver_s", "queries", "forks", "infeas",
                  "new_fp", "fp/solver_s");
    *out += line;
    for (size_t i = 0; i < rows.size() && i < top_n; ++i) {
        const HotRow& hot = rows[i];
        const double solver_seconds =
            static_cast<double>(hot.row->solver_nanos) / 1e9;
        const double yield =
            solver_seconds > 0.0
                ? static_cast<double>(hot.row->new_fingerprints) /
                      solver_seconds
                : 0.0;
        char hex[24];
        std::snprintf(hex, sizeof(hex), "0x%" PRIx64, hot.hl_pc);
        std::snprintf(line, sizeof(line),
                      "  %-18.18s %-12s %9.4f %8" PRIu64 " %6" PRIu64
                      " %6" PRIu64 " %6" PRIu64 " %12.1f\n",
                      hot.workload->c_str(), hex, solver_seconds,
                      hot.row->solver_queries, hot.row->forks,
                      hot.row->infeasible, hot.row->new_fingerprints,
                      yield);
        *out += line;
    }
}

}  // namespace

std::string
RenderHotLocations(const AttributionSnapshot& snapshot, size_t top_n)
{
    std::vector<HotRow> rows;
    for (const auto& [workload, table] : snapshot.workloads) {
        for (const auto& [hl_pc, row] : table) {
            rows.push_back(HotRow{&workload, hl_pc, &row});
        }
    }
    if (rows.empty()) {
        return "";
    }
    std::string out;
    std::stable_sort(rows.begin(), rows.end(),
                     [](const HotRow& a, const HotRow& b) {
                         return a.row->solver_nanos > b.row->solver_nanos;
                     });
    out += "hot locations (by solver seconds)\n";
    AppendHotTable(&out, rows, top_n);
    // Yield ranking: fingerprints per solver-second. Locations that
    // produced fingerprints for ~no solver time are the best deals of
    // all; rank them first.
    std::vector<HotRow> yielding;
    for (const HotRow& hot : rows) {
        if (hot.row->new_fingerprints > 0) {
            yielding.push_back(hot);
        }
    }
    if (!yielding.empty()) {
        std::stable_sort(
            yielding.begin(), yielding.end(),
            [](const HotRow& a, const HotRow& b) {
                const double a_nanos =
                    static_cast<double>(a.row->solver_nanos);
                const double b_nanos =
                    static_cast<double>(b.row->solver_nanos);
                // fp/ns cross-multiplied to dodge divide-by-zero.
                return static_cast<double>(a.row->new_fingerprints) *
                           b_nanos >
                       static_cast<double>(b.row->new_fingerprints) *
                           a_nanos;
            });
        out += "hot locations (by fingerprints per solver second)\n";
        AppendHotTable(&out, yielding, top_n);
    }
    return out;
}

}  // namespace chef::obs
