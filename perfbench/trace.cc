// Traced replay: spans recorded by the benchmark around each call into a
// layer's public function, kept in memory and written out at the end.
#include <algorithm>
#include <fstream>

#include "bench.h"
#include "engine/cost_model.h"
#include "engine/planner.h"
#include "obs/json.h"
#include "oql/parser.h"
#include "translate/query_translator.h"

namespace perfbench {
namespace {

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
  int request = 0;
  double child_us = 0;  // time covered by direct children
};

/// Single-threaded span recorder; spans nest by a stack of open spans.
class SpanLog {
 public:
  int Begin(std::string name, int request) {
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    spans_.back().start = Clock::now();
    return open_.back();
  }

  /// Closes span `id` and returns its duration in µs.
  double End(int id) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.end = Clock::now();
    open_.pop_back();
    const double us = UsSince(span.start, span.end);
    if (span.parent >= 0) spans_[static_cast<size_t>(span.parent)].child_us += us;
    return us;
  }

  /// Duration minus the part of it the span's children cover.
  double SelfUs(int id) const {
    const Span& span = spans_[static_cast<size_t>(id)];
    return UsSince(span.start, span.end) - span.child_us;
  }

  void Write(const std::string& path, Clock::time_point origin) const {
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": \"" << sqo::obs::JsonEscape(s.name)
          << "\", \"request\": " << s.request << ", \"parent\": " << s.parent
          << ", \"start_us\": " << UsSince(origin, s.start)
          << ", \"end_us\": " << UsSince(origin, s.end)
          << ", \"self_us\": " << SelfUs(static_cast<int>(i)) << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Costs alternatives like the server's model, with a span per call.
class TracedCostModel : public sqo::core::CostModel {
 public:
  TracedCostModel(const sqo::engine::ObjectStore* store, SpanLog* log, int request)
      : inner_(store), log_(log), request_(request) {}

  double EstimateCost(const sqo::datalog::Query& query) const override {
    const int span = log_->Begin("sqo.costing", request_);
    const double cost = inner_.EstimateCost(query);
    total_us += log_->End(span);
    return cost;
  }

  mutable double total_us = 0;

 private:
  sqo::engine::EngineCostModel inner_;
  SpanLog* log_;
  int request_;
};

/// Worst ratio, across operators, between the planner's row estimate and
/// the rows the operator produced.
double QErrorMax(const sqo::obs::QueryProfile& profile) {
  double worst = 1.0;
  for (const sqo::obs::ProfileNode& node : profile.nodes) {
    if (node.est_rows < 0 || node.op.empty()) continue;
    const double est = std::max(node.est_rows, 1.0);
    const double actual = std::max(static_cast<double>(node.rows_out), 1.0);
    worst = std::max(worst, std::max(est / actual, actual / est));
  }
  return worst;
}

/// Per-template samples of each span-derived metric.
struct LayerSamples {
  std::map<std::string, std::array<std::vector<double>, kTemplates>> by_metric;
  void Add(const std::string& metric, Template t, double value) {
    by_metric[metric][static_cast<size_t>(t)].push_back(value);
  }
  double Median(const std::string& metric, Template t) const {
    const auto it = by_metric.find(metric);
    return it == by_metric.end() ? 0 : Quantile(it->second[static_cast<size_t>(t)], 0.5);
  }
};

}  // namespace

void TraceReplay(World* world,
                 const std::vector<std::map<std::pair<int, int>, double>>& served_us,
                 const std::string& spans_path, Metrics* out) {
  const sqo::core::Pipeline& pipeline = *world->pipeline;
  const sqo::engine::Database& db = *world->primary;
  std::vector<std::pair<ReadRequest, double>> requests;  // with served µs
  for (size_t s = 0; s < world->sessions.size(); ++s) {
    for (int round = 0; round < world->spec.replay_rounds; ++round) {
      const std::vector<Op> ops = MakeRound(world->spec, world->seed, static_cast<int>(s),
                                            round, world->student_names);
      for (size_t i = 0; i < ops.size(); ++i) {
        const auto it = served_us[s].find({round, static_cast<int>(i)});
        if (ops[i].kind == OpKind::kRead && it != served_us[s].end()) {
          requests.emplace_back(ops[i].read, it->second);
        }
      }
    }
  }

  // Each read runs untraced (what a served read does after dispatch, in
  // this thread) and traced: a `read` span (optimize with its costing
  // children, then evaluation) followed by a `measure` span with the
  // separately timed calls into single layers. The two runs alternate
  // which goes first, so neither gains from running warm.
  std::vector<double> direct_us;
  std::vector<double> served_same;
  auto untraced = [&](const ReadRequest& read) {
    const Clock::time_point start = Clock::now();
    sqo::engine::EngineCostModel cost_model(&db.store());
    auto result = pipeline.OptimizeText(read.oql, &cost_model);
    if (result.ok() && !result->contradiction) {
      (void)db.Run(result->alternatives[result->best_index].datalog);
    }
    direct_us.push_back(UsSince(start, Clock::now()));
  };
  SpanLog log;
  const Clock::time_point origin = Clock::now();
  LayerSamples layer;
  std::vector<double> traced_us;
  auto traced = [&](const ReadRequest& read, size_t r) {
    const Template t = read.tmpl;
    const int request = static_cast<int>(r);
    const int root = log.Begin("read", request);
    const int optimize = log.Begin("sqo.optimize", request);
    TracedCostModel cost_model(&db.store(), &log, request);
    auto result = pipeline.OptimizeText(read.oql, &cost_model);
    log.End(optimize);
    const bool evaluate = result.ok() && !result->contradiction;
    sqo::obs::EvalStats stats;
    if (evaluate) {
      const int span = log.Begin("engine.eval", request);
      (void)db.Run(result->alternatives[result->best_index].datalog, &stats);
      log.End(span);
    }
    traced_us.push_back(log.End(root));
    if (!result.ok()) return;

    const int measure = log.Begin("measure", request);
    int span = log.Begin("oql.parse", request);
    auto parsed = sqo::oql::ParseOql(read.oql);
    const double parse_us = log.End(span);
    double step2_us = 0;
    if (parsed.ok()) {
      span = log.Begin("translate.step2", request);
      (void)sqo::translate::TranslateQuery(pipeline.schema(), *parsed);
      step2_us = log.End(span);
    }
    layer.Add("oql.parse_us", t, parse_us);
    layer.Add("translate.step2_us", t, step2_us);
    layer.Add("sqo.step3_us", t, std::max(0.0, log.SelfUs(optimize) - parse_us - step2_us));
    layer.Add("sqo.costing_us", t, cost_model.total_us);
    layer.Add("sqo.alternatives", t, static_cast<double>(result->alternatives.size()));
    if (evaluate) {
      const sqo::datalog::Query& best = result->alternatives[result->best_index].datalog;
      span = log.Begin("engine.plan", request);
      (void)sqo::engine::PlanQuery(best, db.store(), sqo::engine::PlannerOptions{true});
      layer.Add("engine.plan_us", t, log.End(span));
      span = log.Begin("engine.profile", request);
      auto profiled = db.ProfileQuery(best);
      log.End(span);
      if (profiled.ok()) layer.Add("engine.qerror_max", t, QErrorMax(profiled->profile));
      // The chosen alternative against the original, back to back and in
      // alternating order, so neither side gains from running warm.
      for (int k = 0; k < 2; ++k) {
        const bool chosen = (k == 0) == (r % 2 == 0);
        span = log.Begin(chosen ? "engine.eval_chosen" : "engine.eval_original", request);
        (void)db.Run(chosen ? best : result->alternatives[0].datalog);
        layer.Add(chosen ? "engine.eval_us" : "engine.eval_original_us", t, log.End(span));
      }
      layer.Add("engine.fetched", t, static_cast<double>(stats.objects_fetched));
      layer.Add("engine.traversals", t, static_cast<double>(stats.relationship_traversals));
      layer.Add("engine.comparisons", t, static_cast<double>(stats.comparisons));
      layer.Add("engine.rows", t, static_cast<double>(stats.tuples_emitted));
    }
    log.End(measure);
  };
  for (size_t r = 0; r < requests.size(); ++r) {
    const ReadRequest& read = requests[r].first;
    served_same.push_back(requests[r].second);
    if (r % 2 == 0) untraced(read);
    traced(read, r);
    if (r % 2 == 1) untraced(read);
  }
  log.Write(spans_path, origin);

  for (int i = 0; i < kTemplates; ++i) {
    const Template t = static_cast<Template>(i);
    const std::string suffix = std::string(".") + kTemplateNames[static_cast<size_t>(i)];
    out->Add("oql.parse_us" + suffix, layer.Median("oql.parse_us", t), "us");
    out->Add("translate.step2_us" + suffix, layer.Median("translate.step2_us", t), "us");
    out->Add("sqo.step3_us" + suffix, layer.Median("sqo.step3_us", t), "us");
    out->Add("sqo.alternatives" + suffix, layer.Median("sqo.alternatives", t), "count");
    out->Add("sqo.costing_us" + suffix, layer.Median("sqo.costing_us", t), "us");
  }
  for (int i = 0; i < kTemplates; ++i) {
    const Template t = static_cast<Template>(i);
    if (t == kExample2) continue;  // proven empty, never evaluated
    const std::string suffix = std::string(".") + kTemplateNames[static_cast<size_t>(i)];
    out->Add("engine.plan_us" + suffix, layer.Median("engine.plan_us", t), "us");
    out->Add("engine.qerror_max" + suffix, layer.Median("engine.qerror_max", t), "ratio");
    out->Add("engine.eval_us" + suffix, layer.Median("engine.eval_us", t), "us");
    out->Add("engine.eval_original_us" + suffix, layer.Median("engine.eval_original_us", t),
             "us");
    out->Add("engine.fetched" + suffix, layer.Median("engine.fetched", t), "count");
    out->Add("engine.traversals" + suffix, layer.Median("engine.traversals", t), "count");
    out->Add("engine.comparisons" + suffix, layer.Median("engine.comparisons", t), "count");
    out->Add("engine.rows" + suffix, layer.Median("engine.rows", t), "count");
  }
  const double fetched = layer.Median("engine.fetched", kScope);
  out->Add("engine.us_per_fetched.scope",
           fetched > 0 ? layer.Median("engine.eval_us", kScope) / fetched : 0, "us");
  out->Add("server.overhead_us", Quantile(served_same, 0.5) - Quantile(direct_us, 0.5), "us");
  // Mean, not median: the per-read difference is small against the spread
  // of read times, and a difference of medians of two mixtures can flip sign.
  double traced_total = 0;
  double direct_total = 0;
  for (size_t i = 0; i < traced_us.size(); ++i) {
    traced_total += traced_us[i];
    direct_total += direct_us[i];
  }
  out->Add("trace.overhead_us",
           traced_us.empty() ? 0 : (traced_total - direct_total) / static_cast<double>(traced_us.size()),
           "us");
}

}  // namespace perfbench
