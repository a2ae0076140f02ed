// Correctness checks. Answers are recomputed from ObjectStore accessors
// (extents, AttributeOf, pair relations), never copied from a run of the
// program under test.
#include <algorithm>
#include <filesystem>
#include <map>
#include <set>

#include "bench.h"
#include "engine/constraint_checker.h"
#include "engine/cost_model.h"
#include "storage/manager.h"

namespace perfbench {
namespace {

using sqo::Oid;
using sqo::Value;

class Accessor {
 public:
  explicit Accessor(const sqo::engine::ObjectStore& store) : store_(store) {}

  Value Attr(const std::string& relation, Oid oid, const std::string& attr) const {
    const sqo::datalog::RelationSignature* sig =
        store_.schema().catalog.Find(relation);
    if (sig == nullptr) return Value();
    const std::optional<size_t> pos = sig->AttributeIndex(attr);
    if (!pos) return Value();
    sqo::Result<Value> value = store_.AttributeOf(relation, oid, *pos);
    return value.ok() ? *value : Value();
  }

  std::vector<Oid> StudentsNamed(const std::string& name) const {
    std::vector<Oid> out;
    for (Oid x : store_.Extent("student")) {
      const Value v = Attr("student", x, "name");
      if (v.kind() == sqo::ValueKind::kString && v.AsString() == name) {
        out.push_back(x);
      }
    }
    return out;
  }

  const std::vector<Oid>& Next(const std::string& relationship, Oid oid) const {
    return store_.Neighbors(relationship, oid);
  }

  const sqo::engine::ObjectStore& store() const { return store_; }

 private:
  const sqo::engine::ObjectStore& store_;
};

bool Below(const Value& v, double bound) {
  return v.is_numeric() && v.AsNumeric() < bound;
}

/// Faculty name -> values of `attr` of every `relation` member taking a
/// section the faculty teaches (one side of the §5.3 join).
std::map<std::string, std::set<std::string>> ByTeacher(const Accessor& a,
                                                      const std::string& relation,
                                                      const std::string& attr) {
  std::map<std::string, std::set<std::string>> out;
  for (Oid s : a.store().Extent(relation)) {
    const std::string id = a.Attr(relation, s, attr).AsString();
    for (Oid section : a.Next("takes", s)) {
      for (Oid z : a.Next("is_taught_by", section)) {
        out[a.Attr("faculty", z, "name").AsString()].insert(id);
      }
    }
  }
  return out;
}

Rows DropOneRow(Rows rows) {
  if (rows.empty()) {
    rows.push_back({Value::String("perturbed")});
  } else {
    rows.pop_back();
  }
  return rows;
}

Rows RunBest(const sqo::core::Pipeline& pipeline, const sqo::engine::Database& db,
             const std::string& oql, bool* ok) {
  sqo::engine::EngineCostModel cost_model(&db.store());
  sqo::Result<sqo::core::PipelineResult> result = pipeline.OptimizeText(oql, &cost_model);
  *ok = result.ok();
  if (!result.ok() || result->contradiction) return {};
  auto rows = db.Run(result->alternatives[result->best_index].datalog);
  *ok = rows.ok();
  return rows.ok() ? *rows : Rows{};
}

}  // namespace

Rows DirectAnswer(const sqo::engine::Database& db, const ReadRequest& read) {
  const Accessor a(db.store());
  Rows rows;
  switch (read.tmpl) {
    case kExample2:
      for (Oid x : a.StudentsNamed(read.name)) {
        for (Oid y : a.Next("takes", x)) {
          for (Oid z : a.Next("is_taught_by", y)) {
            // taxes_withheld(10%) = salary * 0.10.
            const Value salary = a.Attr("faculty", z, "salary");
            if (!salary.is_numeric() ||
                !(salary.AsNumeric() * 0.10 < static_cast<double>(read.k))) {
              continue;
            }
            const Value address = a.Attr("faculty", z, "address");
            rows.push_back({a.Attr("faculty", z, "name"),
                            a.Attr("address", address.AsOid(), "city")});
          }
        }
      }
      break;
    case kScope:
      for (Oid x : db.store().Extent("person")) {
        if (Below(a.Attr("person", x, "age"), static_cast<double>(read.k))) {
          rows.push_back({a.Attr("person", x, "name")});
        }
      }
      break;
    case kJoinElim: {
      // z.name = w.name: students and TAs joined through a shared teacher.
      const auto students = ByTeacher(a, "student", "student_id");
      const auto tas = ByTeacher(a, "ta", "employee_id");
      for (const auto& [teacher, sids] : students) {
        const auto it = tas.find(teacher);
        if (it == tas.end()) continue;
        for (const std::string& sid : sids) {
          for (const std::string& eid : it->second) {
            rows.push_back({Value::String(sid), Value::String(eid)});
          }
        }
      }
      break;
    }
    case kAsrDirect:
    case kAsrIndirect:
      for (Oid x : a.StudentsNamed(read.name)) {
        for (Oid y : a.Next("takes", x)) {
          for (Oid z : a.Next("is_section_of", y)) {
            for (Oid v : a.Next("has_sections", z)) {
              if (read.tmpl == kAsrIndirect) {
                rows.push_back({Value::FromOid(v)});
                continue;
              }
              for (Oid w : a.Next("has_ta", v)) rows.push_back({Value::FromOid(w)});
            }
          }
        }
      }
      break;
    case kSelect:
      for (Oid x : db.store().Extent("faculty")) {
        const Value salary = a.Attr("faculty", x, "salary");
        if (salary.is_numeric() && salary.AsNumeric() > static_cast<double>(read.k)) {
          rows.push_back({a.Attr("faculty", x, "name")});
        }
      }
      break;
  }
  return rows;
}

bool SameRows(Rows a, Rows b) {
  auto less = [](const std::vector<Value>& x, const std::vector<Value>& y) {
    return std::lexicographical_compare(x.begin(), x.end(), y.begin(), y.end(),
                                        Value::TotalOrder);
  };
  auto equal = [](const std::vector<Value>& x, const std::vector<Value>& y) {
    return x == y;
  };
  for (Rows* rows : {&a, &b}) {
    std::sort(rows->begin(), rows->end(), less);
    rows->erase(std::unique(rows->begin(), rows->end(), equal), rows->end());
  }
  return a == b;
}

void CheckServedAnswers(World* world, CheckReport* report,
                        std::vector<std::pair<ReadRequest, Rows>>* served) {
  const sqo::engine::Database& primary = *world->primary;
  const std::vector<sqo::datalog::Clause>& ics = world->pipeline->compiled().all_ics;
  auto check_ics = [&](const std::string& when) {
    auto checked = sqo::engine::CheckConstraints(primary, ics);
    if (!checked.ok()) {
      report->Fail("IC check failed to run " + when + ": " + checked.status().ToString());
    } else if (!checked->consistent()) {
      report->Fail("IC violated " + when + ": " + checked->violations[0].ToString());
    }
  };

  // ICs hold after the window, and after each of one more write cycle,
  // one write at a time.
  if (!SyncEpoch(world)) report->Fail("epoch sync failed");
  check_ics("after the timed window");
  if (world->perturb == "ic") {
    const Oid prof = world->states[0].faculty[0];
    (void)world->sessions[0]->Mutate([prof](sqo::engine::Database* db) {
      return db->store().UpdateAttribute(prof, "salary", Value::Double(10'000));
    });
    check_ics("after the perturbing write");
  }
  for (size_t i = 0; i < world->spec.write_cycle.size(); ++i) {
    SessionState& state = world->states[i % world->states.size()];
    Op op;
    op.kind = OpKind::kWrite;
    op.value = static_cast<int64_t>(world->seed * 7919 + i);
    WriteEffect effect;
    const sqo::Status status = world->sessions[static_cast<size_t>(state.session)]->Mutate(
        [&](sqo::engine::Database* db) { return ApplyWrite(db, *world, state, op, &effect); });
    if (!status.ok()) {
      report->Fail("check write failed: " + status.ToString());
      continue;
    }
    RecordAck(&state, effect);
    check_ics("after check write " + std::to_string(i));
  }

  sqo::engine::EngineCostModel cost_model(&primary.store());
  for (int t = 0; t < kTemplates; ++t) {
    const Template tmpl = static_cast<Template>(t);
    const std::string tname = kTemplateNames[static_cast<size_t>(t)];
    // join_elim has no constants: one sample covers it.
    const int n = tmpl == kJoinElim ? 1 : world->spec.direct_samples;
    const std::vector<Op> reads = MakeReads(world->seed, kCheckStream, tmpl, n, world->student_names);
    for (size_t i = 0; i < reads.size(); ++i) {
      const ReadRequest& read = reads[i].read;
      const sqo::server::QueryResponse reply = world->sessions[0]->Query(read.oql);
      if (!reply.status.ok() || reply.degraded) {
        report->Fail(tname + ": served reply failed: " + reply.status.ToString());
        continue;
      }
      const Rows rows = world->perturb == "served_rows" ? DropOneRow(reply.rows) : reply.rows;
      const Rows direct = DirectAnswer(primary, read);
      if (tmpl == kExample2 && (!reply.contradiction || !rows.empty() || !direct.empty())) {
        report->Fail("example2 not a contradiction with no rows: " + read.oql);
      }
      if (!SameRows(rows, direct)) {
        report->Fail(tname + ": served " + std::to_string(rows.size()) + " rows, direct " +
                     std::to_string(direct.size()) + ": " + read.oql);
      }
      served->emplace_back(read, rows);

      // Every alternative returns the original's rows (SQO's equivalence).
      if (static_cast<int>(i) >= world->spec.alternative_samples) continue;
      auto result = world->pipeline->OptimizeText(read.oql, &cost_model);
      if (!result.ok()) {
        report->Fail(tname + ": optimize failed: " + result.status().ToString());
        continue;
      }
      if (result->contradiction) continue;
      Rows original;
      for (size_t alt = 0; alt < result->alternatives.size(); ++alt) {
        auto alt_rows = primary.Run(result->alternatives[alt].datalog);
        if (!alt_rows.ok()) {
          report->Fail(tname + ": alternative " + std::to_string(alt) +
                       " failed: " + alt_rows.status().ToString());
          continue;
        }
        Rows got = *alt_rows;
        if (world->perturb == "alternative_rows" && alt + 1 == result->alternatives.size()) {
          got = DropOneRow(got);
        }
        if (alt == 0) {
          original = got;
          if (!SameRows(original, direct)) report->Fail(tname + ": original != direct");
        } else if (!SameRows(got, original)) {
          report->Fail(tname + ": alternative " + std::to_string(alt) +
                       " differs from the original");
        }
      }
    }
  }
}

double CheckDurability(World* world,
                       const std::vector<std::pair<ReadRequest, Rows>>& served,
                       CheckReport* report) {
  namespace fs = std::filesystem;
  // The directory as a process crash would leave it: every acked write
  // reached the WAL file (written, not fsynced), and no final checkpoint
  // has run.
  const std::string crash_dir = world->db_dir + "-crash";
  std::error_code ec;
  fs::remove_all(crash_dir, ec);
  fs::copy(world->db_dir, crash_dir, fs::copy_options::recursive, ec);
  if (ec) {
    report->Fail("copying the store directory failed: " + ec.message());
    return 0;
  }

  sqo::engine::Database recovered(&world->pipeline->schema());
  if (!sqo::workload::SetupUniversityRuntime(&recovered).ok()) {
    report->Fail("runtime setup of the recovered database failed");
    return 0;
  }
  sqo::storage::OpenOptions options;
  options.checkpoint_on_close = false;  // the copy is thrown away
  const Clock::time_point start = Clock::now();
  const sqo::Status opened = recovered.Open(crash_dir, options);
  const double recovery_ms = UsSince(start, Clock::now()) / 1000.0;
  if (!opened.ok() || recovered.recovery_info()->degraded) {
    report->Fail("reopen failed: " + opened.ToString());
    return recovery_ms;
  }

  sqo::engine::ObjectStore& store = recovered.store();
  if (world->perturb == "durability") {
    const auto& [key, value] = *world->states[0].expect.attributes.begin();
    (void)store.UpdateAttribute(Oid(key.first), key.second, Value::Int(-1));
  }
  if (world->perturb == "conservation") {
    (void)store.DeleteObject(store.Extent("person").front());
  }

  const Accessor a(store);
  int64_t creates = 0;
  int64_t deletes = 0;
  for (const SessionState& state : world->states) {
    const Expectations& expect = state.expect;
    creates += expect.creates;
    deletes += expect.deletes;
    for (const auto& [oid, name] : expect.created) {
      const Value got = a.Attr("person", Oid(oid), "name");
      if (got.kind() != sqo::ValueKind::kString || got.AsString() != name) {
        report->Fail("acked create lost: " + name);
      }
    }
    for (uint64_t oid : expect.deleted) {
      if (store.objects().count(oid) != 0) {
        report->Fail("acked delete lost: @" + std::to_string(oid));
      }
    }
    for (const auto& [key, value] : expect.attributes) {
      const auto it = store.objects().find(key.first);
      if (it == store.objects().end() ||
          a.Attr(it->second.exact_relation, Oid(key.first), key.second) != value) {
        report->Fail("acked update lost: @" + std::to_string(key.first) + "." + key.second);
      }
    }
    for (bool present : {true, false}) {
      for (const auto& [s, section] : present ? expect.takes_present : expect.takes_absent) {
        const std::vector<Oid>& taken = a.Next("takes", Oid(s));
        if ((std::find(taken.begin(), taken.end(), Oid(section)) != taken.end()) != present) {
          report->Fail(std::string("acked ") + (present ? "Relate" : "Unrelate") +
                       " lost: @" + std::to_string(s));
        }
      }
    }
  }

  // Conservation: created objects are plain persons, so only the person
  // extent moves, by the benchmark's own count of acked creates/deletes.
  for (const auto& [relation, initial] : world->initial_extents) {
    const int64_t expected = static_cast<int64_t>(initial) +
                             (relation == "person" ? creates - deletes : 0);
    if (static_cast<int64_t>(store.ExtentSize(relation)) != expected) {
      report->Fail("extent " + relation + " has " + std::to_string(store.ExtentSize(relation)) +
                   " members, expected " + std::to_string(expected));
    }
  }

  for (const auto& [read, rows] : served) {
    bool ok = false;
    Rows got = RunBest(*world->pipeline, recovered, read.oql, &ok);
    if (world->perturb == "recovered_rows" && &read == &served.back().first) {
      got = DropOneRow(got);
    }
    if (!ok || !SameRows(got, rows)) {
      report->Fail("recovered store answers differently: " + read.oql);
    }
  }
  recovered.CloseStorage();
  fs::remove_all(crash_dir, ec);
  return recovery_ms;
}

}  // namespace perfbench
