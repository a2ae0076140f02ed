// Workload specs, the seeded request stream and the write ops.
#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "bench.h"

namespace perfbench {
namespace {

/// Replaces the one occurrence of `from` in `text`; the paper query text
/// is the template, so a changed query must fail loudly, not drift.
std::string ReplaceOnce(std::string text, const std::string& from,
                        const std::string& to) {
  const size_t at = text.find(from);
  if (at == std::string::npos) {
    std::cerr << "perfbench: template text lost '" << from << "'\n";
    std::abort();
  }
  return text.replace(at, from.size(), to);
}

int64_t Draw(std::mt19937_64& rng, int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
}

std::mt19937_64 StreamRng(uint64_t seed, uint64_t a, uint64_t b) {
  std::seed_seq seq{static_cast<uint32_t>(seed), static_cast<uint32_t>(seed >> 32),
                    static_cast<uint32_t>(a), static_cast<uint32_t>(b)};
  return std::mt19937_64(seq);
}

}  // namespace

ReadRequest MakeRead(Template t, std::mt19937_64& rng,
                     const std::vector<std::string>& student_names) {
  namespace wl = sqo::workload;
  ReadRequest read;
  read.tmpl = t;
  auto quoted_name = [&] {
    read.name = student_names[static_cast<size_t>(
        Draw(rng, 0, static_cast<int64_t>(student_names.size()) - 1))];
    return "\"" + read.name + "\"";
  };
  switch (t) {
    case kExample2:
      // Faculty salaries exceed 40K (IC1) and taxes_withheld is
      // increasing with taxes_withheld(30K, 10%) = 3000, so any bound at
      // or below 3000 contradicts the ICs.
      read.k = 100 * Draw(rng, 1, 30);
      read.oql = ReplaceOnce(
          ReplaceOnce(wl::QueryExample2(), "\"john\"", quoted_name()),
          "< 1000", "< " + std::to_string(read.k));
      break;
    case kScope:
      // Below 30 the IC4 residue adds `not faculty(X, ...)` (§5.2).
      read.k = Draw(rng, 18, 30);
      read.oql = ReplaceOnce(wl::QueryScopeReduction(), "< 30",
                             "< " + std::to_string(read.k));
      break;
    case kJoinElim:
      read.oql = wl::QueryJoinElimination();
      break;
    case kAsrDirect:
      read.oql = ReplaceOnce(wl::QueryAsrDirect(), "\"james\"", quoted_name());
      break;
    case kAsrIndirect:
      read.oql =
          ReplaceOnce(wl::QueryAsrIndirect(), "\"johnson\"", quoted_name());
      break;
    case kSelect:
      read.k = 1000 * Draw(rng, 45, 115);
      read.oql = "select x.name from x in Faculty where x.salary > " +
                 std::to_string(read.k);
      break;
  }
  return read;
}

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "served_small" || name == "served_large") {
    // 16 reads + 4 in-memory writes per round (20% writes). A takes
    // Unrelate marks the ASR stale and the next publishes rebuild it, which
    // costs milliseconds on served_large; with one in every six writes, 40%
    // of the writes there waited on a rebuild and the write median sat on
    // the edge between the two modes (spread 0.28 over ten runs). One in
    // ten keeps the median in the fast mode and the p99 in the slow one.
    spec.reads_per_round = {3, 3, 1, 3, 3, 3};
    spec.writes_per_round = 4;
    spec.write_cycle = {WriteKind::kCreate, WriteKind::kUpdateAge,    WriteKind::kDelete,
                        WriteKind::kUpdateSalary, WriteKind::kRelate, WriteKind::kCreate,
                        WriteKind::kUpdateAge,    WriteKind::kDelete, WriteKind::kUpdateSalary,
                        WriteKind::kUnrelate};
    spec.replay_rounds = 3;
    spec.direct_samples = 8;
    spec.alternative_samples = 2;
    if (name == "served_large") {
      spec.data.n_students = 2000;
      spec.data.n_plain_persons = 500;
      spec.replay_rounds = 2;
      spec.direct_samples = 4;
      spec.alternative_samples = 1;
    }
    return spec;
  }
  if (name == "durable_churn") {
    // 21 reads + 21 durable writes per round (50% writes), a checkpoint
    // every 20 rounds of session 0. One join_elim read per round: at this
    // scale it takes ~75 ms, and with one read of each template per round
    // it took 85% of a session's time, leaving ~4000 writes per 30-s run
    // and a write p99 that spread 0.13 over five runs. Two sessions: with
    // four, the join_elim reads kept every core busy, and in a set of five
    // runs every metric spread 0.18-0.29 (with two, 0.13 at most).
    spec.data.n_students = 400;
    spec.data.n_plain_persons = 100;
    spec.durable = true;
    spec.max_sessions = 2;
    spec.reads_per_round = {4, 4, 1, 4, 4, 4};
    spec.writes_per_round = 21;
    spec.write_cycle = {WriteKind::kCreate, WriteKind::kUpdateAge,    WriteKind::kRelate,
                        WriteKind::kDelete, WriteKind::kUpdateSalary, WriteKind::kUnrelate};
    spec.checkpoint_every_rounds = 20;
    spec.replay_rounds = 2;
    spec.direct_samples = 6;
    spec.alternative_samples = 2;
    return spec;
  }
  return std::nullopt;
}

std::vector<Op> MakeRound(const WorkloadSpec& spec, uint64_t seed, int session,
                          int round, const std::vector<std::string>& names) {
  std::mt19937_64 rng = StreamRng(seed, static_cast<uint64_t>(session),
                                  static_cast<uint64_t>(round));
  std::vector<Op> ops;
  for (int t = 0; t < kTemplates; ++t) {
    for (int i = 0; i < spec.reads_per_round[static_cast<size_t>(t)]; ++i) {
      Op op;
      op.read = MakeRead(static_cast<Template>(t), rng, names);
      ops.push_back(std::move(op));
    }
  }
  for (int i = 0; i < spec.writes_per_round; ++i) {
    Op op;
    op.kind = OpKind::kWrite;
    op.value = Draw(rng, 0, 1'000'000'000);
    ops.push_back(std::move(op));
  }
  std::shuffle(ops.begin(), ops.end(), rng);
  if (session == 0 && spec.checkpoint_every_rounds > 0 &&
      (round + 1) % spec.checkpoint_every_rounds == 0) {
    Op op;
    op.kind = OpKind::kCheckpoint;
    ops.push_back(std::move(op));
  }
  return ops;
}

std::vector<Op> MakeReads(uint64_t seed, uint64_t stream, Template t, int n,
                          const std::vector<std::string>& names) {
  std::mt19937_64 rng = StreamRng(seed, stream, static_cast<uint64_t>(t));
  std::vector<Op> ops(static_cast<size_t>(n));
  for (Op& op : ops) op.read = MakeRead(t, rng, names);
  return ops;
}

sqo::Status ApplyWrite(sqo::engine::Database* db, const World& world,
                       const SessionState& state, const Op& op,
                       WriteEffect* effect) {
  sqo::engine::ObjectStore& store = db->store();
  const std::vector<WriteKind>& cycle = world.spec.write_cycle;
  const WriteKind kind = cycle[state.writes % cycle.size()];
  const uint64_t lap = state.writes / cycle.size();
  const uint64_t v = static_cast<uint64_t>(op.value);
  effect->kind = kind;
  switch (kind) {
    case WriteKind::kCreate: {
      effect->name = "pb" + std::to_string(state.session) + "_" +
                     std::to_string(state.writes);
      effect->value = sqo::Value::Int(17 + static_cast<int64_t>(v % 69));
      // An existing address: the structural IC on person.address needs
      // one, and structures may be shared.
      const sqo::Oid address = world.addresses[v % world.addresses.size()];
      SQO_ASSIGN_OR_RETURN(
          effect->oid,
          store.CreateObject("Person", {{"name", sqo::Value::String(effect->name)},
                                        {"age", effect->value},
                                        {"address", sqo::Value::FromOid(address)}}));
      return sqo::Status::Ok();
    }
    case WriteKind::kDelete:
      if (state.live_created.empty()) {
        return sqo::InternalError("perfbench: nothing to delete");
      }
      effect->oid = state.live_created.front();
      return store.DeleteObject(effect->oid);
    case WriteKind::kUpdateAge:
      effect->oid = state.students[lap % state.students.size()];
      effect->attribute = "age";
      effect->value = sqo::Value::Int(17 + static_cast<int64_t>(v % 29));
      return store.UpdateAttribute(effect->oid, "age", effect->value);
    case WriteKind::kUpdateSalary:
      // Above 40K, so IC1 keeps holding.
      effect->oid = state.faculty[lap % state.faculty.size()];
      effect->attribute = "salary";
      effect->value = sqo::Value::Double(45'000.0 + static_cast<double>(v % 75'000));
      return store.UpdateAttribute(effect->oid, "salary", effect->value);
    case WriteKind::kRelate: {
      effect->oid = state.students[lap % state.students.size()];
      const std::vector<sqo::Oid>& taken = store.Neighbors("takes", effect->oid);
      const size_t n = world.sections.size();
      for (size_t i = 0; i < n; ++i) {
        const sqo::Oid section = world.sections[(v + i) % n];
        if (std::find(taken.begin(), taken.end(), section) == taken.end()) {
          effect->other = section;
          return store.Relate("takes", effect->oid, section);
        }
      }
      return sqo::InternalError("perfbench: student takes every section");
    }
    case WriteKind::kUnrelate:
      if (state.related.empty()) {
        return sqo::InternalError("perfbench: nothing to unrelate");
      }
      effect->oid = state.related.front().first;
      effect->other = state.related.front().second;
      return store.Unrelate("takes", effect->oid, effect->other);
  }
  return sqo::InternalError("perfbench: unknown write kind");
}

void RecordAck(SessionState* state, const WriteEffect& effect) {
  Expectations& expect = state->expect;
  const uint64_t oid = effect.oid.raw();
  switch (effect.kind) {
    case WriteKind::kCreate:
      state->live_created.push_back(effect.oid);
      expect.created[oid] = effect.name;
      ++expect.creates;
      break;
    case WriteKind::kDelete:
      state->live_created.pop_front();
      expect.created.erase(oid);
      expect.deleted.insert(oid);
      ++expect.deletes;
      break;
    case WriteKind::kUpdateAge:
    case WriteKind::kUpdateSalary:
      expect.attributes[{oid, effect.attribute}] = effect.value;
      break;
    case WriteKind::kRelate:
      state->related.emplace_back(effect.oid, effect.other);
      expect.takes_absent.erase({oid, effect.other.raw()});
      expect.takes_present.insert({oid, effect.other.raw()});
      break;
    case WriteKind::kUnrelate:
      state->related.pop_front();
      expect.takes_present.erase({oid, effect.other.raw()});
      expect.takes_absent.insert({oid, effect.other.raw()});
      break;
  }
  ++state->writes;
}

bool SyncEpoch(World* world) {
  return world->sessions[0]
      ->Mutate([](sqo::engine::Database*) { return sqo::Status::Ok(); })
      .ok();
}

}  // namespace perfbench
