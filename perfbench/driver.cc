// End-to-end benchmark of served OQL reads and writes.
//
//   sqo_perfbench --workload <served_small|served_large|durable_churn>
//                 --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Builds a Figure-1 university, starts a server::Server in-process and
// drives it with closed-loop client sessions for the timed window, then
// checks the answers. The last stdout line is the result JSON; --trace 1
// adds a single-threaded traced replay and reports per-layer metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "obs/json.h"
#include "storage/manager.h"

#ifndef SQO_PERFBENCH_COMPILER
#define SQO_PERFBENCH_COMPILER "unknown"
#endif
#ifndef SQO_PERFBENCH_BUILD_TYPE
#define SQO_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
  std::string perturb;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--perturb") {
      args->perturb = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

bool Fail(const std::string& what) {
  std::cerr << "perfbench: " << what << "\n";
  return false;
}

/// Pipeline, populated primary, storage where the workload has it, a
/// started server with one session per client, and a warm-up.
bool Setup(World* world, const Args& args) {
  auto pipeline = sqo::workload::MakeUniversityPipeline();
  if (!pipeline.ok()) return Fail("pipeline: " + pipeline.status().ToString());
  world->pipeline = std::make_unique<sqo::core::Pipeline>(std::move(pipeline).value());
  world->primary = std::make_unique<sqo::engine::Database>(&world->pipeline->schema());
  sqo::engine::Database& db = *world->primary;
  const sqo::Status populated =
      sqo::workload::PopulateUniversity(world->spec.data, *world->pipeline, &db);
  if (!populated.ok()) return Fail("populate: " + populated.ToString());

  const sqo::engine::ObjectStore& store = db.store();
  const size_t clients = std::max<size_t>(
      1, std::min<size_t>(world->spec.max_sessions, std::thread::hardware_concurrency()));
  world->states.resize(clients);
  for (size_t s = 0; s < clients; ++s) world->states[s].session = static_cast<int>(s);
  const size_t name_pos = *store.schema().catalog.Find("student")->AttributeIndex("name");
  size_t plain = 0;
  for (sqo::Oid oid : store.Extent("student")) {
    world->student_names.push_back(store.AttributeOf("student", oid, name_pos)->AsString());
    if (store.objects().at(oid.raw()).exact_relation == "student") {
      world->states[plain++ % clients].students.push_back(oid);
    }
  }
  const std::vector<sqo::Oid>& faculty = store.Extent("faculty");
  for (size_t i = 0; i < faculty.size(); ++i) {
    world->states[i % clients].faculty.push_back(faculty[i]);
  }
  world->sections = store.Extent("section");
  world->addresses = store.Extent(store.schema().RelationFor("Address"));
  for (const auto& cls : store.schema().schema.classes()) {
    const std::string relation = store.schema().RelationFor(cls.name);
    world->initial_extents[relation] = store.ExtentSize(relation);
  }

  if (world->spec.durable) {
    world->db_dir = args.out_dir + "/db-" + world->spec.name + "-" + std::to_string(getpid());
    std::error_code ec;
    std::filesystem::remove_all(world->db_dir, ec);
    // Each ack follows the WAL write but not its fsync: on a shared disk
    // the fsync wait is set by other tenants' traffic and would swamp the
    // write path this workload measures (README.md, "How durable_churn
    // was made steady").
    sqo::storage::OpenOptions options;
    options.sync_each_append = false;
    const Clock::time_point start = Clock::now();
    const sqo::Status opened = db.Open(world->db_dir, options);
    world->open_ms = UsSince(start, Clock::now()) / 1000.0;
    if (!opened.ok()) return Fail("open: " + opened.ToString());
  }

  sqo::server::ServerConfig config;
  config.workers = clients;
  config.replica_setup = sqo::workload::SetupUniversityRuntime;
  world->server =
      std::make_unique<sqo::server::Server>(world->pipeline.get(), &db, std::move(config));
  const sqo::Status started = world->server->Start();
  if (!started.ok()) return Fail("server start: " + started.ToString());
  for (size_t s = 0; s < clients; ++s) {
    world->sessions.push_back(world->server->OpenSession("client-" + std::to_string(s)));
  }

  // Warm-up: every session reads every template twice.
  std::atomic<bool> warm{true};
  std::vector<std::thread> threads;
  for (size_t s = 0; s < clients; ++s) {
    threads.emplace_back([world, s, &warm] {
      for (int t = 0; t < kTemplates; ++t) {
        for (const Op& op : MakeReads(world->seed, kWarmupStream + s, static_cast<Template>(t),
                                      2, world->student_names)) {
          if (!world->sessions[s]->Query(op.read.oql).status.ok()) warm = false;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return warm ? true : Fail("warm-up read failed");
}

/// What session 0's checkpoints measured (durable workloads).
struct CheckpointLog {
  std::vector<double> ms;
  uint64_t wal_bytes = 0;     // WAL bytes written in the window
  uint64_t last_bytes = 0;    // WAL size after the last checkpoint
};

uint64_t WalBytes(const sqo::engine::Database& db) {
  return db.storage() == nullptr ? 0 : db.storage()->wal_stats().bytes;
}

/// Closed loop: each session sends its next op when the previous reply
/// arrives, and runs whole rounds until the window has passed.
std::vector<std::vector<Sample>> RunWindow(World* world, double seconds,
                                           CheckpointLog* checkpoints,
                                           std::atomic<int>* contradiction_violations) {
  const size_t clients = world->sessions.size();
  std::vector<std::vector<Sample>> samples(clients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  checkpoints->last_bytes = WalBytes(*world->primary);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < clients; ++s) {
    threads.emplace_back([&, s] {
      sqo::server::Session& session = *world->sessions[s];
      SessionState& state = world->states[s];
      for (int round = 0; round == 0 || Clock::now() < deadline; ++round) {
        const std::vector<Op> ops =
            MakeRound(world->spec, world->seed, static_cast<int>(s), round, world->student_names);
        for (size_t i = 0; i < ops.size(); ++i) {
          const Op& op = ops[i];
          Sample sample;
          sample.kind = op.kind;
          sample.tmpl = op.read.tmpl;
          sample.round = round;
          sample.index = static_cast<int>(i);
          const Clock::time_point sent = Clock::now();
          if (op.kind == OpKind::kRead) {
            const sqo::server::QueryResponse reply = session.Query(op.read.oql);
            sample.failed = !reply.status.ok() || reply.degraded;
            if (!sample.failed && op.read.tmpl == kExample2 &&
                (!reply.contradiction || !reply.rows.empty())) {
              ++*contradiction_violations;
            }
          } else if (op.kind == OpKind::kWrite) {
            WriteEffect effect;
            const sqo::Status status = session.Mutate([&](sqo::engine::Database* db) {
              const Clock::time_point applied = Clock::now();
              const sqo::Status st = ApplyWrite(db, *world, state, op, &effect);
              sample.apply_us = UsSince(applied, Clock::now());
              return st;
            });
            sample.failed = !status.ok();
            if (status.ok()) RecordAck(&state, effect);
          } else {
            const sqo::Status status = session.Mutate([&](sqo::engine::Database* db) {
              const uint64_t before = WalBytes(*db);
              const Clock::time_point begun = Clock::now();
              const sqo::Status st = db->Checkpoint();
              checkpoints->ms.push_back(UsSince(begun, Clock::now()) / 1000.0);
              checkpoints->wal_bytes += before - checkpoints->last_bytes;
              checkpoints->last_bytes = WalBytes(*db);
              return st;
            });
            sample.failed = !status.ok();
          }
          const Clock::time_point done = Clock::now();
          sample.latency_us = UsSince(sent, done);
          sample.end_s = UsSince(start, done) / 1e6;
          samples[s].push_back(sample);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  checkpoints->wal_bytes += WalBytes(*world->primary) - checkpoints->last_bytes;
  return samples;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0;
  std::ostringstream out;
  out.precision(12);
  out << value;
  return out.str();
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.items.size(); ++i) {
    const Metrics::Metric& m = metrics.items[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + Number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Clock::time_point process_start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: sqo_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>] [--git-sha <sha>] [--perturb <check>]\n";
    return 2;
  }
  std::optional<WorkloadSpec> spec = FindWorkload(args.workload);
  if (!spec) {
    std::cerr << "perfbench: unknown workload " << args.workload << "\n";
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);

  World world;
  world.spec = *spec;
  world.seed = args.seed;
  world.perturb = args.perturb;
  if (!Setup(&world, args)) return 1;
  const double setup_s = UsSince(process_start, Clock::now()) / 1e6;

  sqo::storage::StorageManager* storage = world.primary->storage();
  const sqo::obs::MetricsRegistry counters_before = world.server->MetricsSnapshot();
  const sqo::storage::GroupCommitter::Stats commits_before =
      storage ? storage->group_commit_stats() : sqo::storage::GroupCommitter::Stats{};
  CheckpointLog checkpoints;
  std::atomic<int> contradiction_violations{0};
  const std::vector<std::vector<Sample>> samples =
      RunWindow(&world, args.seconds, &checkpoints, &contradiction_violations);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  const sqo::obs::MetricsRegistry counters_after = world.server->MetricsSnapshot();
  const sqo::storage::GroupCommitter::Stats commits_after =
      storage ? storage->group_commit_stats() : sqo::storage::GroupCommitter::Stats{};

  // ---- end-to-end figures from the client's own samples
  int64_t attempted = 0, failed = 0, completed_in_window = 0;
  std::vector<int64_t> per_second(static_cast<size_t>(std::ceil(args.seconds)), 0);
  std::vector<double> reads, writes, apply, publish;
  std::array<std::vector<double>, kTemplates> by_template;
  std::vector<std::map<std::pair<int, int>, double>> served_us(samples.size());
  for (size_t s = 0; s < samples.size(); ++s) {
    for (const Sample& sample : samples[s]) {
      ++attempted;
      if (sample.failed) {
        ++failed;
        continue;
      }
      if (sample.kind == OpKind::kCheckpoint) continue;
      if (sample.end_s <= args.seconds) {
        ++completed_in_window;
        ++per_second[std::min(per_second.size() - 1, static_cast<size_t>(sample.end_s))];
      }
      if (sample.kind == OpKind::kRead) {
        reads.push_back(sample.latency_us);
        by_template[sample.tmpl].push_back(sample.latency_us);
        served_us[s][{sample.round, sample.index}] = sample.latency_us;
      } else {
        writes.push_back(sample.latency_us);
        apply.push_back(sample.apply_us);
        publish.push_back(sample.latency_us - sample.apply_us);
      }
    }
  }

  // ---- correctness at the quiescent point, then the traced replay
  CheckReport report;
  if (contradiction_violations > 0) {
    report.Fail(std::to_string(contradiction_violations.load()) +
                " example2 replies were not flagged contradictory with no rows");
  }
  std::vector<std::pair<ReadRequest, Rows>> served;
  CheckServedAnswers(&world, &report, &served);
  const std::string tag = world.spec.name + "-seed" + std::to_string(args.seed);
  Metrics layers;
  if (args.trace) TraceReplay(&world, served_us, args.out_dir + "/spans-" + tag + ".json", &layers);
  world.server->Stop();
  double recovery_ms = 0;
  if (world.spec.durable) recovery_ms = CheckDurability(&world, served, &report);

  Metrics metrics;
  if (!args.trace) {
    metrics.Add("setup_s", setup_s, "s");
    metrics.Add("ops_per_s", static_cast<double>(completed_in_window) / args.seconds, "ops/s");
    metrics.Add("read_p50_us", Quantile(reads, 0.5), "us");
    metrics.Add("read_p99_us", Quantile(reads, 0.99), "us");
    metrics.Add("write_p50_us", Quantile(writes, 0.5), "us");
    metrics.Add("write_p99_us", Quantile(writes, 0.99), "us");
    for (int t = 0; t < kTemplates; ++t) {
      metrics.Add(std::string("q_") + kTemplateNames[static_cast<size_t>(t)] + "_p50_us",
                  Quantile(by_template[static_cast<size_t>(t)], 0.5), "us");
    }
    metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    auto delta = [&](const char* name) {
      return static_cast<double>(counters_after.CounterValue(name) -
                                 counters_before.CounterValue(name));
    };
    const double n_reads = static_cast<double>(reads.size());
    const double n_writes = static_cast<double>(writes.size());
    metrics.items = layers.items;
    metrics.Add("sqo.applicability_skips_per_read",
                Ratio(delta("optimizer.applicability_skips"), n_reads), "count/read");
    metrics.Add("sqo.dedup_hits_per_read", Ratio(delta("optimizer.dedup_hits"), n_reads),
                "count/read");
    metrics.Add("sqo.match_memo_hits_per_read", Ratio(delta("optimizer.match_memo_hits"), n_reads),
                "count/read");
    metrics.Add("server.shed", delta("server.shed"), "count");
    metrics.Add("server.expired_in_queue", delta("server.expired_in_queue"), "count");
    metrics.Add("server.degraded_overload", delta("server.degraded_overload"), "count");
    metrics.Add("write.apply_us", Quantile(apply, 0.5), "us");
    metrics.Add("epoch.publish_us", Quantile(publish, 0.5), "us");
    metrics.Add("epoch.publish_skips_per_write", Ratio(delta("server.epoch_skips"), n_writes),
                "count/write");
    metrics.Add("engine.index_delta_applies_per_write",
                Ratio(delta("index.delta_applies"), n_writes), "count/write");
    metrics.Add("engine.asr_delta_pairs_per_write", Ratio(delta("asr.delta_pairs"), n_writes),
                "count/write");
    metrics.Add("engine.asr_lazy_rebuilds", delta("asr.lazy_rebuilds"), "count");
    const double batches = static_cast<double>(commits_after.batches - commits_before.batches);
    metrics.Add("storage.batches_per_write", Ratio(batches, n_writes), "count/write");
    metrics.Add("storage.ops_per_batch",
                Ratio(static_cast<double>(commits_after.ops - commits_before.ops), batches),
                "ops/batch");
    metrics.Add("storage.wal_bytes_per_write",
                Ratio(static_cast<double>(checkpoints.wal_bytes), n_writes), "B/write");
    metrics.Add("storage.checkpoint_ms", Quantile(checkpoints.ms, 0.5), "ms");
    metrics.Add("storage.open_ms", world.open_ms, "ms");
    metrics.Add("storage.recovery_ms", recovery_ms, "ms");
  }

  std::ostringstream host;
  host << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"cpu_model\": \""
       << sqo::obs::JsonEscape(CpuModel()) << "\", \"compiler\": \"" << SQO_PERFBENCH_COMPILER
       << "\", \"build_type\": \"" << SQO_PERFBENCH_BUILD_TYPE << "\", \"git_sha\": \""
       << sqo::obs::JsonEscape(args.git_sha) << "\", \"sessions\": " << world.sessions.size()
       << ", \"workers\": " << world.server->config().workers << "}";
  std::ostringstream counts;
  counts << "{\"reads\": " << reads.size() << ", \"writes\": " << writes.size()
         << ", \"checkpoints\": " << checkpoints.ms.size() << ", \"ops_each_second\": [";
  for (size_t i = 0; i < per_second.size(); ++i) counts << (i ? ", " : "") << per_second[i];
  counts << "]}";
  for (const std::string& failure : report.failures) {
    std::cerr << "perfbench: CHECK FAILED: " << failure << "\n";
  }
  if (reads.size() < 1000 || (!writes.empty() && writes.size() < 1000)) {
    std::cerr << "perfbench: fewer than 1000 samples: p99 has under ten samples beyond it\n";
  }
  std::ostringstream result;
  result << "{\"correct\": " << (report.ok ? "true" : "false") << ", \"attempted\": " << attempted
         << ", \"failed\": " << failed << ", \"metrics\": " << MetricsJson(metrics) << "}";
  std::ofstream(args.out_dir + "/result-" + tag + "-trace" + (args.trace ? "1" : "0") + ".json")
      << "{\"host\": " << host.str() << ", \"samples\": " << counts.str()
      << ", \"result\": " << result.str() << "}\n";
  if (world.spec.durable) {
    (void)world.primary->CloseStorage();
    std::filesystem::remove_all(world.db_dir, ec);
  }
  std::cout << "host " << host.str() << "\n"
            << "samples " << counts.str() << "\n"
            << result.str() << std::endl;
  return 0;
}
