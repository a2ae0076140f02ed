// Shared declarations of the end-to-end benchmark: workload specs, the
// seeded request stream, the per-run world (pipeline, primary database,
// server, sessions) and what the timed window records.
#ifndef SQO_PERFBENCH_BENCH_H_
#define SQO_PERFBENCH_BENCH_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/value.h"
#include "engine/database.h"
#include "server/server.h"
#include "sqo/pipeline.h"
#include "workload/university.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Rows = std::vector<std::vector<sqo::Value>>;

inline double UsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

// ---------------------------------------------------------------- requests

/// Read templates: one query shape each, constants drawn per request.
enum Template { kExample2, kScope, kJoinElim, kAsrDirect, kAsrIndirect, kSelect };
constexpr int kTemplates = 6;
constexpr std::array<const char*, kTemplates> kTemplateNames = {
    "example2", "scope", "join_elim", "asr_direct", "asr_indirect", "select"};

/// One read: the template, its drawn constants, and the OQL text the
/// server sees.
struct ReadRequest {
  Template tmpl = kExample2;
  std::string name;   // student name (example2, asr_direct, asr_indirect)
  int64_t k = 0;      // age bound (scope), tax bound (example2), salary (select)
  std::string oql;
};

enum class OpKind { kRead, kWrite, kCheckpoint };

/// Writes keep every IC true and keep extent sizes steady: each session
/// cycles through its workload's write kinds over objects only it touches.
enum class WriteKind { kCreate, kUpdateAge, kRelate, kDelete, kUpdateSalary, kUnrelate };

struct Op {
  OpKind kind = OpKind::kRead;
  ReadRequest read;   // kRead
  int64_t value = 0;  // kWrite: seeded draw for the new value / section
};

/// Builds a read of template `t` with constants drawn from `rng`.
ReadRequest MakeRead(Template t, std::mt19937_64& rng,
                     const std::vector<std::string>& student_names);

// --------------------------------------------------------------- workloads

struct WorkloadSpec {
  std::string name;
  sqo::workload::GeneratorConfig data;
  bool durable = false;
  size_t max_sessions = 4;  // client sessions and server workers, at most nproc
  std::array<int, kTemplates> reads_per_round{};
  int writes_per_round = 0;
  std::vector<WriteKind> write_cycle;  // kinds each session's writes cycle through
  int checkpoint_every_rounds = 0;  // session 0 only; 0 = never
  int replay_rounds = 0;            // traced replay: leading rounds per session
  int direct_samples = 0;           // per template, direct-computation check
  int alternative_samples = 0;      // per template, alternative equivalence
};

std::optional<WorkloadSpec> FindWorkload(const std::string& name);

/// The ops of round `round` of session `session`: the spec's reads and
/// writes in a seeded order. Writes continue the session's write cycle.
std::vector<Op> MakeRound(const WorkloadSpec& spec, uint64_t seed, int session,
                          int round, const std::vector<std::string>& names);

/// `n` seeded reads of template `t` from stream `stream` (the checks and
/// the warm-up draw from streams of their own).
std::vector<Op> MakeReads(uint64_t seed, uint64_t stream, Template t, int n,
                          const std::vector<std::string>& names);
constexpr uint64_t kCheckStream = 0xC4EC;
constexpr uint64_t kWarmupStream = 0x3A3A00;  // + session

// ------------------------------------------------------------------- world

/// What a session's acked writes promise about the store; the durability
/// check holds the recovered store to it.
struct Expectations {
  std::map<uint64_t, std::string> created;  // live created oid -> name
  std::set<uint64_t> deleted;
  std::map<std::pair<uint64_t, std::string>, sqo::Value> attributes;
  std::set<std::pair<uint64_t, uint64_t>> takes_present;
  std::set<std::pair<uint64_t, uint64_t>> takes_absent;
  int64_t creates = 0;
  int64_t deletes = 0;
};

/// Per-session write state: the objects only this session mutates.
struct SessionState {
  int session = 0;
  std::vector<sqo::Oid> students;
  std::vector<sqo::Oid> faculty;
  std::deque<sqo::Oid> live_created;
  std::deque<std::pair<sqo::Oid, sqo::Oid>> related;
  uint64_t writes = 0;  // acked writes; picks the next kind of the cycle
  Expectations expect;
};

/// What one write did, filled inside the mutation op and applied to the
/// session's state once the write is acked.
struct WriteEffect {
  WriteKind kind = WriteKind::kCreate;
  sqo::Oid oid;
  sqo::Oid other;         // takes: the section
  std::string name;       // create
  std::string attribute;  // updates
  sqo::Value value;       // updates, create (age)
};

/// One op as the client saw it.
struct Sample {
  OpKind kind = OpKind::kRead;
  Template tmpl = kExample2;
  int round = 0;
  int index = 0;         // position in the round
  double latency_us = 0;
  double apply_us = 0;   // writes: time inside the mutation op
  double end_s = 0;      // completion, seconds after the window opened
  bool failed = false;
};

struct World {
  WorkloadSpec spec;
  uint64_t seed = 0;
  std::string perturb;  // self-test of the checks; empty in real runs
  std::unique_ptr<sqo::core::Pipeline> pipeline;
  std::unique_ptr<sqo::engine::Database> primary;
  std::unique_ptr<sqo::server::Server> server;
  std::vector<std::shared_ptr<sqo::server::Session>> sessions;
  std::vector<SessionState> states;
  std::vector<std::string> student_names;
  std::vector<sqo::Oid> sections;
  std::vector<sqo::Oid> addresses;  // shared by created persons
  std::map<std::string, size_t> initial_extents;  // class relation -> size
  std::string db_dir;                              // durable workloads
  double open_ms = 0;
};

/// The mutation op of write `op` on session `state`. Runs on a server
/// worker, serialized against the primary.
sqo::Status ApplyWrite(sqo::engine::Database* db, const World& world,
                       const SessionState& state, const Op& op,
                       WriteEffect* effect);

/// Applies an acked write's effect to the session's state and promises.
void RecordAck(SessionState* state, const WriteEffect& effect);

/// Publishes the primary's tip so reads at a quiescent point see every
/// acked write (publishes may be skipped while readers hold pins).
bool SyncEpoch(World* world);

/// Metrics in the order they are printed.
struct Metrics {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> items;
  void Add(std::string name, double value, std::string unit) {
    items.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Exact quantile (linear interpolation between closest ranks) of
/// `values`; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

// ------------------------------------------------------------------- trace

/// Replays, in one thread on the quiescent primary, the reads of the
/// first `replay_rounds` rounds of every session: once untraced and once
/// with spans around each call into a layer. Adds the span-derived
/// per-layer metrics to `out` and writes the spans to `spans_path`.
/// `served_us[s]` maps (round, index) of session s to its served latency.
void TraceReplay(World* world,
                 const std::vector<std::map<std::pair<int, int>, double>>& served_us,
                 const std::string& spans_path, Metrics* out);

// ------------------------------------------------------------------ checks

/// Each template's answer computed from ObjectStore accessors alone.
Rows DirectAnswer(const sqo::engine::Database& db, const ReadRequest& read);

/// Order-insensitive row-set equality.
bool SameRows(Rows a, Rows b);

struct CheckReport {
  bool ok = true;
  std::vector<std::string> failures;
  void Fail(std::string what) {
    ok = false;
    failures.push_back(std::move(what));
  }
};

/// IC check, direct computation, alternative equivalence and the
/// contradiction property at the quiescent point after the window.
/// `served` receives the sampled requests with their served rows, for the
/// recovered store to answer again.
void CheckServedAnswers(World* world, CheckReport* report,
                        std::vector<std::pair<ReadRequest, Rows>>* served);

/// Durable workloads: reopens a copy of the store directory (no final
/// checkpoint), then checks acked writes, extent conservation and the
/// sampled answers. Returns the recovery time in ms.
double CheckDurability(World* world,
                       const std::vector<std::pair<ReadRequest, Rows>>& served,
                       CheckReport* report);

}  // namespace perfbench

#endif  // SQO_PERFBENCH_BENCH_H_
