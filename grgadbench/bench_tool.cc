// grgad_bench_tool — the in-process half of grgad-bench (see README.md).
//
//   grgad_bench_tool pipeline|trace --dataset NAME [--out DIR]
//                    [--edges PATH] [--repeat N] [--set key=value ...]
//
//   pipeline  Generates the dataset (seed 42), runs RunPipeline N times
//             (default 1) under a wall clock, checks the outputs, requires
//             every repeat to score the same groups bit for bit, and
//             evaluates the scored groups against the ground truth.
//   trace     The per-layer run. Times an untraced RunPipeline, then the
//             same work as four calls into the stage layer (RunAnchorStage /
//             RunCandidateStage / RunEmbeddingStage / RunScoringStage) with
//             caller-owned MatrixArenas, a profiling RunContext and the
//             TraversalWorkspace allocation counter; splits the embedding
//             stage into prologue and per-epoch cost with one extra
//             Tpgcl::FitEmbed at tpgcl.epochs = 1; and repeats the stage
//             calls at one worker thread. The scored-group fingerprint of
//             every pass must equal the untraced one.
//
// --out saves the (untraced) run's artifacts for `grgad serve --in`; --edges
// writes the dataset's node count and undirected edge list as JSON, from
// which the traffic generator draws mutations that always apply. Both modes
// print one JSON object on stdout; a check that fails is listed under
// "errors" and makes the exit code 1.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/artifacts.h"
#include "src/core/evaluation.h"
#include "src/core/method_registry.h"
#include "src/core/stages.h"
#include "src/data/registry.h"
#include "src/gcl/tpgcl.h"
#include "src/graph/traversal_workspace.h"
#include "src/serve/request.h"
#include "src/tensor/arena.h"
#include "src/util/atomic_io.h"
#include "src/util/parallel.h"
#include "src/util/timer.h"

namespace grgad {
namespace {

struct Args {
  std::string mode;
  std::string dataset;
  std::string out_dir;
  std::string edges_path;
  int repeat = 1;
  std::vector<std::string> overrides;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--dataset") {
      args->dataset = value;
    } else if (flag == "--out") {
      args->out_dir = value;
    } else if (flag == "--edges") {
      args->edges_path = value;
    } else if (flag == "--repeat") {
      args->repeat = std::atoi(value.c_str());
    } else if (flag == "--set") {
      args->overrides.push_back(value);
    } else {
      return false;
    }
  }
  return (argc % 2) == 0 && !args->dataset.empty() && args->repeat >= 1;
}

/// JSON object built member by member; numbers keep all 17 digits.
class JsonObject {
 public:
  void Number(const std::string& key, double v) {
    char buf[40];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    Raw(key, buf);
  }
  void String(const std::string& key, const std::string& v) {
    Raw(key, "\"" + JsonEscapeText(v) + "\"");
  }
  void Raw(const std::string& key, const std::string& rendered) {
    body_ += body_.empty() ? "{" : ", ";
    body_ += "\"" + key + "\": " + rendered;
  }
  std::string Render() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

std::string StringList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + JsonEscapeText(items[i]) + "\"";
  }
  return out + "]";
}

/// FNV-1a over every scored group in order: member ids, then the score at
/// %.17g — equal fingerprints mean bitwise-equal pipeline outputs.
std::string Fingerprint(const std::vector<ScoredGroup>& scored) {
  std::string text;
  char buf[40];
  for (const ScoredGroup& sg : scored) {
    for (int v : sg.nodes) text += std::to_string(v) + ",";
    std::snprintf(buf, sizeof(buf), ":%.17g;", sg.score);
    text += buf;
  }
  return HexU64(Fnv1a64(text));
}

/// Structural checks on a finished pipeline run; appends what is wrong.
void CheckArtifacts(const Graph& g, const PipelineArtifacts& a,
                    const TpGrGadOptions& options,
                    std::vector<std::string>* errors) {
  const size_t m = a.candidate_groups.size();
  if (m < 2) errors->push_back("fewer than two candidate groups");
  if (a.scored_groups.size() != m || a.group_scores.size() != m ||
      a.group_embeddings.rows() != m) {
    errors->push_back("artifact sizes disagree with the candidate count");
    return;
  }
  for (size_t i = 0; i < m; ++i) {
    const std::vector<int>& group = a.candidate_groups[i];
    bool ok = !group.empty();
    for (size_t k = 0; ok && k < group.size(); ++k) {
      ok = group[k] >= 0 && group[k] < g.num_nodes() &&
           (k == 0 || group[k - 1] < group[k]);
    }
    if (!ok) {
      errors->push_back("group " + std::to_string(i) +
                        " is not a sorted set of node ids");
      return;
    }
    if (!std::isfinite(a.group_scores[i])) {
      errors->push_back("group " + std::to_string(i) + " has a non-finite score");
      return;
    }
  }
  // The scoring stage is a pure function of the embeddings: running it again
  // must reproduce every score bit for bit.
  auto again = RunScoringStage(a.group_embeddings, a.candidate_groups, options);
  if (!again.ok() || again.value().scores != a.group_scores) {
    errors->push_back("re-scoring the embeddings changed the scores");
  }
}

void CheckEvaluation(const GroupEvaluation& eval,
                     std::vector<std::string>* errors) {
  for (double v : {eval.cr, eval.f1, eval.auc}) {
    if (!std::isfinite(v) || v < 0.0 || v > 1.0) {
      errors->push_back("evaluation metric outside [0, 1]");
      return;
    }
  }
  if (eval.auc <= 0.5) errors->push_back("AUC is no better than chance");
}

int Finish(JsonObject* out, const std::vector<std::string>& errors) {
  out->Raw("errors", StringList(errors));
  std::printf("%s\n", out->Render().c_str());
  return errors.empty() ? 0 : 1;
}

/// Writes what --out and --edges ask for; appends failures to `errors`.
void SaveOutputs(const Args& args, const Dataset& d,
                 const PipelineArtifacts& artifacts,
                 std::vector<std::string>* errors) {
  if (!args.out_dir.empty()) {
    const Status saved = SaveArtifacts(artifacts, args.out_dir);
    if (!saved.ok()) errors->push_back("SaveArtifacts: " + saved.ToString());
  }
  if (args.edges_path.empty()) return;
  std::ofstream out(args.edges_path, std::ios::trunc);
  out << "{\"num_nodes\": " << d.graph.num_nodes() << ", \"edges\": [";
  bool first = true;
  d.graph.ForEachEdge([&](int u, int v) {
    out << (first ? "" : ", ") << "[" << u << ", " << v << "]";
    first = false;
  });
  out << "]}\n";
  if (!out.flush()) errors->push_back("cannot write " + args.edges_path);
}

int CmdPipeline(const Args& args, const Dataset& d, double generate_s,
                const TpGrGadOptions& options) {
  std::vector<std::string> errors;
  JsonObject out;
  out.Number("generate_s", generate_s);
  PipelineArtifacts artifacts;
  std::string run_s = "[";
  for (int i = 0; i < args.repeat; ++i) {
    Timer timer;
    auto run = RunPipeline(d.graph, options);
    const double seconds = timer.ElapsedSeconds();
    if (!run.ok()) {
      errors.push_back("RunPipeline: " + run.status().ToString());
      return Finish(&out, errors);
    }
    if (i > 0 && Fingerprint(run.value().scored_groups) !=
                     Fingerprint(artifacts.scored_groups)) {
      errors.push_back("repeat " + std::to_string(i) +
                       " scored different groups than the run before");
    }
    artifacts = std::move(run).value();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "", seconds);
    run_s += buf;
  }
  out.Raw("run_s", run_s + "]");
  out.Number("anchors", static_cast<double>(artifacts.anchors.size()));
  out.Number("groups", static_cast<double>(artifacts.candidate_groups.size()));
  CheckArtifacts(d.graph, artifacts, options, &errors);
  const GroupEvaluation eval = EvaluateGroups(d, artifacts.scored_groups);
  CheckEvaluation(eval, &errors);
  out.Number("cr", eval.cr);
  out.Number("f1", eval.f1);
  out.Number("auc", eval.auc);
  out.String("fingerprint", Fingerprint(artifacts.scored_groups));
  SaveOutputs(args, d, artifacts, &errors);
  return Finish(&out, errors);
}

/// One pass of the four stage calls with per-layer instrumentation.
struct TracePass {
  double total_s = 0.0;
  double gae_ms = 0.0, sampling_ms = 0.0, gcl_ms = 0.0, od_ms = 0.0;
  double search_ms = 0.0, select_ms = 0.0, neighbors_ms = 0.0, detect_ms = 0.0;
  uint64_t workspace_allocs = 0;
  MatrixArena::Stats gae_arena, gcl_arena;
  std::vector<int> anchors;
  std::vector<std::vector<int>> groups;
  std::string fingerprint;
};

Status RunTracePass(const Graph& g, const TpGrGadOptions& base,
                    TracePass* pass) {
  MatrixArena gae_arena;
  MatrixArena gcl_arena;
  TpGrGadOptions options = base;
  options.mh_gae.base.arena = &gae_arena;
  options.tpgcl.arena = &gcl_arena;
  RunContext ctx;
  ctx.profile = true;
  Timer total;

  Timer timer;
  auto anchors = RunAnchorStage(g, options, &ctx);
  pass->gae_ms = timer.ElapsedMillis();
  if (!anchors.ok()) return anchors.status();
  pass->anchors = anchors.value().anchors;

  const uint64_t allocs_before = TraversalWorkspace::TotalHeapAllocs();
  timer.Reset();
  auto candidates = RunCandidateStage(g, pass->anchors, options, &ctx);
  pass->sampling_ms = timer.ElapsedMillis();
  if (!candidates.ok()) return candidates.status();
  pass->workspace_allocs = TraversalWorkspace::TotalHeapAllocs() - allocs_before;
  pass->groups = candidates.value().groups;

  timer.Reset();
  auto embedding = RunEmbeddingStage(g, pass->groups, options, &ctx);
  pass->gcl_ms = timer.ElapsedMillis();
  if (!embedding.ok()) return embedding.status();

  timer.Reset();
  auto scoring =
      RunScoringStage(embedding.value().embeddings, pass->groups, options, &ctx);
  pass->od_ms = timer.ElapsedMillis();
  if (!scoring.ok()) return scoring.status();
  pass->total_s = total.ElapsedSeconds();

  for (const StageTiming& t : ctx.stage_timings()) {
    const double ms = t.seconds * 1e3;
    if (t.stage == "candidates/search") pass->search_ms += ms;
    if (t.stage == "candidates/select") pass->select_ms += ms;
    if (t.stage == "scoring/neighbors") pass->neighbors_ms += ms;
    if (t.stage == "scoring/detect") pass->detect_ms += ms;
  }
  pass->gae_arena = gae_arena.stats();
  pass->gcl_arena = gcl_arena.stats();
  pass->fingerprint = Fingerprint(scoring.value().scored_groups);
  return Status::Ok();
}

double ReuseRatio(const MatrixArena::Stats& s) {
  return s.acquired > 0 ? static_cast<double>(s.reused) /
                              static_cast<double>(s.acquired)
                        : 0.0;
}

int CmdTrace(const Args& args, const Dataset& d, double generate_s,
             const TpGrGadOptions& options) {
  std::vector<std::string> errors;
  JsonObject out;
  out.Number("data.generate_ms", generate_s * 1e3);

  Timer timer;
  auto untraced = RunPipeline(d.graph, options);
  const double untraced_s = timer.ElapsedSeconds();
  if (!untraced.ok()) {
    errors.push_back("RunPipeline: " + untraced.status().ToString());
    return Finish(&out, errors);
  }
  const std::string expected = Fingerprint(untraced.value().scored_groups);
  CheckArtifacts(d.graph, untraced.value(), options, &errors);
  CheckEvaluation(EvaluateGroups(d, untraced.value().scored_groups), &errors);
  SaveOutputs(args, d, untraced.value(), &errors);

  TracePass pass;
  if (Status s = RunTracePass(d.graph, options, &pass); !s.ok()) {
    errors.push_back("traced stages: " + s.ToString());
    return Finish(&out, errors);
  }
  if (pass.fingerprint != expected) {
    errors.push_back("traced fingerprint " + pass.fingerprint +
                     " differs from untraced " + expected);
  }

  // The embedding stage is one FitEmbed at tpgcl.epochs = E; a second fit at
  // one epoch isolates the per-epoch cost and the prologue (view setup).
  MatrixArena one_epoch_arena;
  TpgclOptions one_epoch = options.tpgcl;
  one_epoch.epochs = 1;
  one_epoch.arena = &one_epoch_arena;
  timer.Reset();
  const TpgclResult one_epoch_fit = Tpgcl(one_epoch).FitEmbed(d.graph, pass.groups);
  const double one_epoch_ms = timer.ElapsedMillis();
  // FitEmbed signals a stopped fit with a partial result (no embeddings).
  if (one_epoch_fit.embeddings.rows() != pass.groups.size() ||
      one_epoch_fit.loss_history.size() != 1) {
    errors.push_back("the one-epoch FitEmbed did not train one full epoch");
    return Finish(&out, errors);
  }
  const int epochs = options.tpgcl.epochs;
  const double epoch_ms =
      epochs > 1 ? (pass.gcl_ms - one_epoch_ms) / (epochs - 1) : pass.gcl_ms;
  const uint64_t one_epoch_bytes = one_epoch_arena.stats().bytes_served;
  const double bytes_per_epoch =
      epochs > 1 ? (static_cast<double>(pass.gcl_arena.bytes_served) -
                    static_cast<double>(one_epoch_bytes)) /
                       (epochs - 1)
                 : static_cast<double>(pass.gcl_arena.bytes_served);

  out.Number("gae.busy_ms", pass.gae_ms);
  out.Number("gae.anchors", static_cast<double>(pass.anchors.size()));
  out.Number("gae.arena_heap_bytes",
             static_cast<double>(pass.gae_arena.heap_bytes));
  out.Number("gae.arena_reuse_ratio", ReuseRatio(pass.gae_arena));
  out.Number("sampling.busy_ms", pass.sampling_ms);
  out.Number("sampling.search_ms", pass.search_ms);
  out.Number("sampling.select_ms", pass.select_ms);
  out.Number("sampling.groups", static_cast<double>(pass.groups.size()));
  out.Number("sampling.workspace_heap_allocs",
             static_cast<double>(pass.workspace_allocs));
  out.Number("gcl.busy_ms", pass.gcl_ms);
  out.Number("gcl.setup_ms", one_epoch_ms - epoch_ms);
  out.Number("gcl.epoch_ms", epoch_ms);
  out.Number("gcl.arena_heap_bytes",
             static_cast<double>(pass.gcl_arena.heap_bytes));
  out.Number("gcl.arena_bytes_served_per_epoch", bytes_per_epoch);
  out.Number("gcl.arena_reuse_ratio", ReuseRatio(pass.gcl_arena));
  out.Number("od.busy_ms", pass.od_ms);
  out.Number("od.neighbors_ms", pass.neighbors_ms);
  out.Number("od.detect_ms", pass.detect_ms);
  out.Number("trace.overhead_pct",
             (pass.total_s - untraced_s) / untraced_s * 100.0);
  out.Number("run_s_untraced", untraced_s);
  out.Number("run_s_traced", pass.total_s);

  // Thread scaling: the same stage calls on one worker thread.
  const int degree = ParallelismDegree();
  SetParallelismDegree(1);
  TracePass single;
  const Status single_status = RunTracePass(d.graph, options, &single);
  SetParallelismDegree(degree);
  if (!single_status.ok()) {
    errors.push_back("one-thread stages: " + single_status.ToString());
  } else if (single.fingerprint != expected) {
    errors.push_back("one-thread fingerprint " + single.fingerprint +
                     " differs from untraced " + expected);
  }
  out.Number("gae.busy_ms.t1", single.gae_ms);
  out.Number("sampling.busy_ms.t1", single.sampling_ms);
  out.Number("gcl.busy_ms.t1", single.gcl_ms);
  out.Number("od.busy_ms.t1", single.od_ms);
  out.String("fingerprint", expected);
  return Finish(&out, errors);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: grgad_bench_tool pipeline|trace --dataset NAME "
                 "[--out DIR] [--edges PATH] [--repeat N] "
                 "[--set key=value ...]\n");
    return 2;
  }
  Timer timer;
  auto dataset = MakeDataset(args.dataset);
  const double generate_s = timer.ElapsedSeconds();
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    return 2;
  }
  auto options = BuildTpGrGadOptions(42, args.overrides);
  if (!options.ok()) {
    std::fprintf(stderr, "error: %s\n", options.status().ToString().c_str());
    return 2;
  }
  if (args.mode == "pipeline") {
    return CmdPipeline(args, dataset.value(), generate_s, options.value());
  }
  if (args.mode == "trace") {
    return CmdTrace(args, dataset.value(), generate_s, options.value());
  }
  std::fprintf(stderr, "error: unknown mode '%s'\n", args.mode.c_str());
  return 2;
}

}  // namespace
}  // namespace grgad

int main(int argc, char** argv) { return grgad::Main(argc, argv); }
