/**
 * @file
 * `perfbench_driver` — the in-process half of the PrimePar benchmark.
 *
 * perfbench/run.py starts this binary once per run; it drives one
 * workload through the program's public entry points, checks the
 * outputs against computations made apart from the path under test,
 * and reports to run.py on stdout:
 *
 *   PERFBENCH_READY <t>       set-up done at monotonic time t
 *   PERFBENCH_RESULT {json}   last line: checks, counts and metrics
 *
 * Modes:
 *   plan  --seed N --seconds S --trace 0|1
 *   train --seed N --seconds S --trace 0|1 [--losses-out F]
 *   serve --seed N --seconds S --trace 0|1 --port P --store F
 *   selftest
 *
 * Every planner and executor pool runs at one thread (see README.md).
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "baselines/megatron.hh"
#include "comm/redistribution.hh"
#include "cost/cost_model.hh"
#include "cost/profiler.hh"
#include "graph/transformer.hh"
#include "optimizer/segmented_dp.hh"
#include "runtime/errors.hh"
#include "runtime/metrics.hh"
#include "runtime/observer.hh"
#include "runtime/trainer.hh"
#include "serve/plan_client.hh"
#include "serve/serve_protocol.hh"
#include "sim/model_sim.hh"
#include "sim/op_sim.hh"
#include "support/json.hh"
#include "topology/cluster.hh"

using namespace primepar;

namespace {

// ---------------------------------------------------------------------------
// Shape of the workloads (README.md, "Workloads").

/** plan_table2_d32: the paper's Table 2 cell at evaluation scale. */
constexpr int kPlanDevices = 32;
constexpr int kParityDevices = 16;
constexpr std::int64_t kPlanBatch = 8;

/** train_*: one transformer block on 16 emulated devices. */
constexpr int kTrainBits = 4;
constexpr std::int64_t kTrainBatch = 4;
constexpr int kWarmupSteps = 5;
/** Timed steps stop at --seconds or at this count, whichever comes
 *  first: the probe loss grows without bound, and the 16- vs 1-device
 *  loss gap grows with it (1e-6 of scale at 60 steps, 1e-5 at 120),
 *  so a fast host must not run the trajectory past the tolerance. */
constexpr int kMaxTimedSteps = 100;
/** The probe loss <O,dO>/numel is unbounded below; at the trainer's
 *  default lr 1e-2 SGD diverges within 20 steps, so the workloads use
 *  a step size that keeps every loss finite (README.md). */
constexpr double kTrainLr = 1e-4;
constexpr double kTrainMomentum = 0.9;
/** 16-device vs 1-device agreement: the partitioned sums round
 *  differently from the serial ones, so losses agree to ~1e-7
 *  relative, not bit for bit. */
constexpr double kLossRelTol = 1e-4;
constexpr double kParamRelTol = 1e-4;

/** serve_mix: closed loops on 1 + kReaders connections; connection 0
 *  also sends a spec the daemon has not seen every kWriteIntervalS.
 *  The rate is set by the cold samples a run needs: 12 of each kind
 *  (new 8-device, new 4-device, shared-operator) per 10 s, so that a
 *  run's serve.cold_p50_ms rests on at least 24 DPs of each kind. */
constexpr int kReaders = 1;
constexpr int kWritesPer10S = 36;
/** A connection sends repeats in bursts of kBurst back-to-back
 *  requests, then waits kThinkTime. The burst keeps the daemon's
 *  caches warm for all but its first request, which steadies the
 *  service time op_p50_ms is made of (README.md, "The serve mix"). */
constexpr int kBurst = 8;
constexpr auto kThinkTime = std::chrono::milliseconds(5);
/** A request on a dropped connection is sent again on a new one, at
 *  most this many times (see runServe). */
constexpr int kMaxReconnects = 3;
constexpr double kWriteIntervalS = 10.0 / kWritesPer10S;
/** Throughput is the median over windows of this length. */
constexpr double kWindowS = 0.5;

ModelConfig
trainModel()
{
    ModelConfig m;
    m.name = "perfbench-block";
    m.hiddenSize = 256;
    m.numHeads = 4;
    m.ffnSize = 1024;
    m.seqLength = 64;
    m.numLayers = 1;
    return m;
}

// ---------------------------------------------------------------------------
// Small helpers.

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of @p v, p in (0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Set-up is done. The timestamp is CLOCK_MONOTONIC (steady_clock),
 *  the clock run.py reads before starting this process, so set-up is
 *  timed without the latency of run.py's pipe reader. */
void
ready()
{
    std::printf("PERFBENCH_READY %.9f\n", nowS());
    std::fflush(stdout);
}

/** What one run reports back to run.py. */
struct Report
{
    std::vector<std::string> failures;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::map<std::string, double> metrics;

    void
    check(const std::string &failure)
    {
        if (!failure.empty())
            failures.push_back(failure);
    }

    int
    emit() const
    {
        for (const std::string &f : failures)
            std::fprintf(stderr, "check failed: %s\n", f.c_str());
        JsonValue doc = JsonValue::object();
        doc.set("correct", failures.empty());
        doc.set("attempted", attempted);
        doc.set("failed", failed);
        JsonValue m = JsonValue::object();
        for (const auto &[name, value] : metrics)
            m.set(name, value);
        doc.set("metrics", std::move(m));
        std::printf("PERFBENCH_RESULT %s\n", doc.toString(0).c_str());
        std::fflush(stdout);
        return 0;
    }
};

// ---------------------------------------------------------------------------
// Checks. Each returns "" when the property holds, else a diagnostic;
// `selftest` feeds each one a perturbed input it must reject.

std::string
checkLossesFinite(const std::vector<double> &losses)
{
    for (std::size_t i = 0; i < losses.size(); ++i) {
        if (!std::isfinite(losses[i]))
            return "loss at step " + std::to_string(i) + " is not finite";
    }
    return "";
}

/** |got - ref| <= tol * scale at every step, scale being the largest
 *  |ref| of the run (losses cross zero, so no per-step relative
 *  error). */
std::string
checkLossesClose(const std::vector<double> &got,
                 const std::vector<double> &ref, double tol)
{
    if (got.size() != ref.size())
        return "loss count " + std::to_string(got.size()) + " vs " +
               std::to_string(ref.size());
    double scale = 0.0;
    for (const double r : ref)
        scale = std::max(scale, std::fabs(r));
    for (std::size_t i = 0; i < got.size(); ++i) {
        const double err = std::fabs(got[i] - ref[i]);
        if (!(err <= tol * scale)) {
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "loss at step %zu: %.17g vs reference %.17g",
                          i, got[i], ref[i]);
            return buf;
        }
    }
    return "";
}

std::string
checkParamsClose(const std::map<std::string, Tensor> &got,
                 const std::map<std::string, Tensor> &ref, double tol)
{
    if (got.size() != ref.size())
        return "parameter count differs";
    for (const auto &[name, r] : ref) {
        const auto it = got.find(name);
        if (it == got.end() || it->second.numel() != r.numel())
            return "parameter " + name + " missing or reshaped";
        const float *a = it->second.data();
        const float *b = r.data();
        double scale = 0.0, err = 0.0;
        for (std::int64_t i = 0; i < r.numel(); ++i) {
            scale = std::max(scale, std::fabs(static_cast<double>(b[i])));
            err = std::max(err, std::fabs(static_cast<double>(a[i]) - b[i]));
        }
        if (!(err <= tol * scale))
            return "parameter " + name + " differs by " +
                   std::to_string(err) + " (scale " +
                   std::to_string(scale) + ")";
    }
    return "";
}

std::string
checkSamePlan(const std::vector<PartitionSeq> &got_strategies,
              double got_layer, double got_total, const DpResult &ref,
              const std::string &what)
{
    if (got_strategies != ref.strategies)
        return what + ": strategies differ from the reference run";
    if (!sameBits(got_layer, ref.layerCost) ||
        !sameBits(got_total, ref.totalCost))
        return what + ": costs differ from the reference run";
    return "";
}

/** A repeated request must get its spec's first answer bit for bit. */
std::string
checkSameAnswer(const PlanResponse &got, const PlanResponse &first,
                const std::string &what)
{
    if (got.strategies != first.strategies ||
        !sameBits(got.layerCostUs, first.layerCostUs) ||
        !sameBits(got.totalCostUs, first.totalCostUs))
        return what + ": a repeat differs from the spec's first answer";
    return "";
}

std::string
checkNoWorse(double chosen, double baseline, const std::string &what)
{
    // Same evaluator for both plans; the slack only absorbs summation
    // order when two different plans tie.
    if (!(chosen <= baseline * (1.0 + 1e-9)))
        return "chosen plan costs " + std::to_string(chosen) +
               " us, more than " + what + " at " +
               std::to_string(baseline) + " us";
    return "";
}

/** Requests the client saw, by response source. */
struct ServeTally
{
    std::map<std::string, std::int64_t> bySource;
    std::int64_t sent = 0;
    std::int64_t distinctSpecs = 0;
};

std::string
checkServeCounters(const ServeTally &tally, const JsonValue &stats)
{
    const JsonValue &counters = stats.at("counters");
    auto counter = [&](const char *name) -> std::int64_t {
        const JsonValue *v = counters.find(name);
        return v ? static_cast<std::int64_t>(v->asNumber()) : 0;
    };
    auto seen = [&](const char *source) -> std::int64_t {
        const auto it = tally.bySource.find(source);
        return it == tally.bySource.end() ? 0 : it->second;
    };
    const std::int64_t store = counter("serve.store_hits");
    const std::int64_t cache = counter("serve.cache_hits");
    const std::int64_t coalesced = counter("serve.coalesced");
    const std::int64_t dp = counter("serve.dp_runs");
    if (counter("serve.requests") != tally.sent)
        return "server counted " +
               std::to_string(counter("serve.requests")) +
               " requests, client sent " + std::to_string(tally.sent);
    if (store + cache + coalesced + dp != tally.sent)
        return "store+cache+coalesced+dp = " +
               std::to_string(store + cache + coalesced + dp) +
               ", client sent " + std::to_string(tally.sent);
    if (store != seen("store") || cache != seen("cache") ||
        coalesced != seen("flight") || dp != seen("dp"))
        return "server per-source counters disagree with the sources "
               "the client saw";
    if (dp != tally.distinctSpecs)
        return "dp_runs " + std::to_string(dp) + " != distinct specs " +
               std::to_string(tally.distinctSpecs);
    if (counter("serve.errors") != 0)
        return "server counted errors";
    return "";
}

/** The service time an answer carries must lie inside the client's
 *  round trip for it: both ends read the same steady clock. */
std::string
checkServiceTime(double serverUs, double clientUs)
{
    if (serverUs > 0.0 && serverUs <= clientUs)
        return "";
    return "service time " + std::to_string(serverUs) +
           " us outside the round trip of " + std::to_string(clientUs) +
           " us";
}

// ---------------------------------------------------------------------------
// plan_table2_d32

/**
 * Eq. 10 cost of one layer under @p cost, evaluated from the plan
 * alone with the exact traffic split (apart from the planner's
 * pruned fast path), stacked over @p layers as the planner stacks
 * them: layers * layer - (layers - 1) * intra(head).
 */
double
evaluatePlan(const CompGraph &graph, const CostModel &cost,
             const std::vector<PartitionSeq> &strategies, int layers)
{
    const int bits = cost.topology().numBits();
    std::vector<OpPlan> plans;
    plans.reserve(graph.numNodes());
    double total = 0.0, head = 0.0;
    for (int n = 0; n < graph.numNodes(); ++n) {
        plans.emplace_back(graph.node(n), strategies[n], bits);
        const double intra = cost.intraCost(plans.back()).weighted;
        total += intra;
        if (n == 0)
            head = intra;
    }
    for (const GraphEdge &e : graph.edges()) {
        const OpSpec &producer = graph.node(e.src);
        const OpSpec &consumer = graph.node(e.dst);
        const auto sizes = graph.transferSizes(e);
        EdgeDimMap consumer_map;
        for (int dim : consumer.tensors[e.dstTensor].dims)
            consumer_map.push_back(dim);
        const auto have = layoutOf(
            producer, plans[e.src].dsi, {producer.outputTensor, false},
            Phase::Forward, plans[e.src].dsi.steps() - 1, e.dimMap,
            sizes);
        const auto need =
            layoutOf(consumer, plans[e.dst].dsi, {e.dstTensor, false},
                     Phase::Forward, 0, consumer_map, sizes);
        const auto have_b = layoutOf(
            consumer, plans[e.dst].dsi, {e.dstTensor, true},
            Phase::Backward, plans[e.dst].dsi.steps() - 1, consumer_map,
            sizes);
        const auto need_b = layoutOf(
            producer, plans[e.src].dsi, {producer.outputTensor, true},
            Phase::Backward, 0, e.dimMap, sizes);
        const auto f = cost.trafficSplit(have, need);
        const auto b = cost.trafficSplit(have_b, need_b);
        const double bpe = consumer.bytesPerElement;
        total += cost.redistLatencyUs(
            static_cast<double>(f.intraNode + b.intraNode) * bpe,
            static_cast<double>(f.interNode + b.interNode) * bpe);
    }
    return layers * total - (layers - 1) * head;
}

double
simTokensPerS(const ClusterTopology &topo, const CompGraph &graph,
              const std::vector<PartitionSeq> &strategies,
              const ModelConfig &model, std::int64_t batch)
{
    const ModelSimulator sim(topo, graph, strategies);
    const ModelSimResult r = sim.simulate(model.numLayers);
    return static_cast<double>(batch * model.seqLength) /
           (r.latencyUs * 1e-6);
}

int
runPlan(double seconds, bool trace)
{
    // The input is the paper's cell itself; the seed does not change it.
    const ModelConfig model = opt6p7b();
    const ClusterTopology topo = ClusterTopology::paperCluster(kPlanDevices);
    const double p0 = nowS();
    ProfiledModels profiled = profileModels(topo);
    const double profileMs = (nowS() - p0) * 1e3;
    const CostModel cost(topo, std::move(profiled));
    const CompGraph graph = buildTransformerBlock(model, kPlanBatch);

    // Set-up also builds what the timed search is checked against: the
    // two baseline plans at 32 devices, and the 16-device pruned and
    // exhaustive searches, whose parity does not depend on the timed
    // run. The searches under test start after ready().
    Report rep;
    const double b0 = nowS();
    const double megatronCost = evaluatePlan(
        graph, cost, bestMegatronPlan(graph, cost).strategies,
        model.numLayers);
    DpOptions spatial;
    spatial.numLayers = model.numLayers;
    spatial.numThreads = 1;
    const double alpaCost = evaluatePlan(
        graph, cost, alpaOptimize(graph, cost, spatial).strategies,
        model.numLayers);
    const double b1 = nowS();
    {
        const ClusterTopology t16 =
            ClusterTopology::paperCluster(kParityDevices);
        const CostModel c16(t16, profileModels(t16));
        DpOptions opts;
        opts.numLayers = model.numLayers;
        opts.numThreads = 1;
        const DpResult pruned =
            SegmentedDpOptimizer(graph, c16, opts).optimize();
        opts.pruneDominated = false;
        const DpResult exhaustive =
            SegmentedDpOptimizer(graph, c16, opts).optimize();
        rep.check(checkSamePlan(pruned.strategies, pruned.layerCost,
                                pruned.totalCost, exhaustive,
                                "16-device pruned vs exhaustive search"));
    }
    std::fprintf(stderr,
                 "set-up: profile %.2f ms, baselines %.0f ms, 16-device "
                 "parity %.0f ms\n",
                 profileMs, (b1 - b0) * 1e3, (nowS() - b1) * 1e3);
    ready();

    MetricsRegistry registry;
    std::vector<double> searchS;
    DpResult chosen;
    const double t0 = nowS();
    do {
        DpOptions opts;
        opts.numLayers = model.numLayers;
        opts.numThreads = 1;
        opts.metrics = trace ? &registry : nullptr;
        const double s0 = nowS();
        DpResult r = SegmentedDpOptimizer(graph, cost, opts).optimize();
        searchS.push_back(nowS() - s0);
        ++rep.attempted;
        if (searchS.size() > 1)
            rep.check(checkSamePlan(r.strategies, r.layerCost,
                                    r.totalCost, chosen,
                                    "repeated search"));
        chosen = std::move(r);
    } while (nowS() - t0 < seconds);
    const double rss = peakRssMb();

    // Checks, untimed.
    const double chosenCost =
        evaluatePlan(graph, cost, chosen.strategies, model.numLayers);
    rep.check(checkNoWorse(chosenCost, megatronCost,
                           "the best Megatron-LM plan"));
    rep.check(checkNoWorse(chosenCost, alpaCost,
                           "the plan without the spatial-temporal primitive"));

    if (!trace) {
        rep.metrics["peak_rss_mb"] = rss;
        rep.metrics["op_p50_ms"] = median(searchS) * 1e3;
    } else {
        const double n = static_cast<double>(searchS.size());
        rep.metrics["optimizer.catalog_ms"] = chosen.catalogMs;
        rep.metrics["optimizer.pilot_ms"] = chosen.pilotMs;
        rep.metrics["optimizer.edge_table_ms"] = chosen.edgeTableMs;
        rep.metrics["optimizer.dp_ms"] = chosen.dpMs;
        rep.metrics["optimizer.candidates_total"] =
            registry.counter("planner.candidates_total") / n;
        rep.metrics["optimizer.candidates_kept"] =
            registry.counter("planner.candidates_kept") / n;
        rep.metrics["optimizer.states_pruned"] =
            registry.counter("planner.states_pruned") / n;
        rep.metrics["cost.profile_ms"] = profileMs;
        rep.metrics["sim.plan_tokens_per_s"] = simTokensPerS(
            topo, graph, chosen.strategies, model, kPlanBatch);
    }
    return rep.emit();
}

// ---------------------------------------------------------------------------
// train_block_d16

/**
 * The benchmark's own observer: sums span time by kind, transfers and
 * bytes, and per step the wall time no span covers (the trainer's own
 * work: batch, probe loss, SGD). Thread-safe as onSpan requires.
 */
class SpanTotals : public RuntimeObserver
{
  public:
    void
    onStepBegin(std::int64_t) override
    {
        std::lock_guard<std::mutex> lock(mu);
        d.stepStartUs = observerNowUs();
        d.stepSpans.clear();
    }

    void
    onSpan(std::int64_t, SpanKind kind, const std::string &, double start,
           double end) override
    {
        std::lock_guard<std::mutex> lock(mu);
        d.kindUs[static_cast<int>(kind)] += end - start;
        d.stepSpans.emplace_back(start, end);
    }

    void
    onTransfer(const TransferTag &, std::int64_t bytes, std::int64_t,
               int, double) override
    {
        std::lock_guard<std::mutex> lock(mu);
        ++d.transfers;
        d.bytes += static_cast<double>(bytes);
    }

    void
    onStepEnd(std::int64_t, double wall_us) override
    {
        std::lock_guard<std::mutex> lock(mu);
        // Union of this step's spans, clipped to the step.
        const double lo = d.stepStartUs, hi = d.stepStartUs + wall_us;
        std::sort(d.stepSpans.begin(), d.stepSpans.end());
        double covered = 0.0, curLo = lo, curHi = lo;
        for (auto [s, e] : d.stepSpans) {
            s = std::max(s, lo);
            e = std::min(e, hi);
            if (e <= s)
                continue;
            if (s > curHi) {
                covered += curHi - curLo;
                curLo = s;
            }
            curHi = std::max(curHi, e);
        }
        covered += curHi - curLo;
        d.selfUs += wall_us - covered;
        ++d.steps;
    }

    /** Forget everything recorded so far (drops the warm-up steps). */
    void
    reset()
    {
        std::lock_guard<std::mutex> lock(mu);
        d = Totals{};
    }

    void
    report(Report &rep)
    {
        std::lock_guard<std::mutex> lock(mu);
        const double n = d.steps > 0 ? static_cast<double>(d.steps) : 1.0;
        auto ms = [&](SpanKind k) {
            return d.kindUs[static_cast<int>(k)] / 1e3 / n;
        };
        rep.metrics["tensor.compute_ms_per_step"] = ms(SpanKind::Compute);
        rep.metrics["runtime.ring_ms_per_step"] = ms(SpanKind::Ring);
        rep.metrics["runtime.ring_join_ms_per_step"] =
            ms(SpanKind::RingJoin);
        rep.metrics["runtime.allreduce_ms_per_step"] =
            ms(SpanKind::AllReduce);
        rep.metrics["runtime.redist_ms_per_step"] = ms(SpanKind::Redist);
        rep.metrics["runtime.transfers_per_step"] = d.transfers / n;
        rep.metrics["runtime.bytes_per_step"] = d.bytes / n;
        rep.metrics["runtime.trainer_self_ms_per_step"] =
            d.selfUs / 1e3 / n;
    }

  private:
    struct Totals
    {
        double kindUs[6] = {};
        std::vector<std::pair<double, double>> stepSpans;
        double stepStartUs = 0.0;
        double selfUs = 0.0;
        double transfers = 0.0;
        double bytes = 0.0;
        std::int64_t steps = 0;
    };

    std::mutex mu;
    Totals d;
};

TrainerOptions
trainOptions(std::uint64_t seed, int bits)
{
    TrainerOptions t;
    t.model = trainModel();
    t.batch = kTrainBatch;
    t.lr = kTrainLr;
    t.momentum = kTrainMomentum;
    t.seed = seed;
    t.runtime.numBits = bits;
    t.runtime.execution.numThreads = 1;
    t.runtime.execution.overlapComm = true;
    return t;
}

int
runTrain(std::uint64_t seed, double seconds, bool trace,
         const std::string &lossesOut)
{
    // Set-up: the partitioned trainer, the 1-device trainer of the same
    // seed (no partitioning, no transfers: the oracle the partitioned
    // run must agree with), and the partitioned run's warm-up steps.
    const double s0 = nowS();
    BlockTrainer trainer(trainOptions(seed, kTrainBits));
    BlockTrainer single(trainOptions(seed, 0));
    SpanTotals spans;
    if (trace)
        trainer.addObserver(&spans);
    const double s1 = nowS();
    std::vector<double> losses;
    for (int i = 0; i < kWarmupSteps; ++i)
        losses.push_back(trainer.trainStep().loss);
    spans.reset();
    std::fprintf(stderr,
                 "set-up: trainers %.1f ms, %d warm-up steps %.1f ms\n",
                 (s1 - s0) * 1e3, kWarmupSteps, (nowS() - s1) * 1e3);
    ready();

    Report rep;
    std::vector<double> stepS;
    const double t0 = nowS();
    do {
        const double q0 = nowS();
        losses.push_back(trainer.trainStep().loss);
        stepS.push_back(nowS() - q0);
        ++rep.attempted;
    } while (nowS() - t0 < seconds && rep.attempted < kMaxTimedSteps);
    const double rss = peakRssMb();

    rep.check(checkLossesFinite(losses));
    if (!lossesOut.empty()) {
        std::ofstream out(lossesOut);
        for (const double l : losses) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g\n", l);
            out << buf;
        }
        if (!out)
            rep.check("cannot write " + lossesOut);
    }
    std::vector<double> refLosses;
    while (single.step() < trainer.step())
        refLosses.push_back(single.trainStep().loss);
    rep.check(checkLossesClose(losses, refLosses, kLossRelTol));
    rep.check(checkParamsClose(trainer.checkpoint().params,
                               single.checkpoint().params, kParamRelTol));
    double dev = 0.0, scale = 0.0;
    for (std::size_t i = 0; i < losses.size() && i < refLosses.size(); ++i) {
        dev = std::max(dev, std::fabs(losses[i] - refLosses[i]));
        scale = std::max(scale, std::fabs(refLosses[i]));
    }
    std::fprintf(stderr,
                 "largest loss deviation from 1 device: %.3g of "
                 "|loss| scale %.3g\n",
                 dev, scale);
    std::fprintf(stderr,
                 "%zu timed steps, ms p10 %.3f p50 %.3f p90 %.3f%s\n",
                 stepS.size(), percentile(stepS, 10) * 1e3,
                 median(stepS) * 1e3, percentile(stepS, 90) * 1e3,
                 trace ? " (traced)" : "");

    if (!trace) {
        rep.metrics["peak_rss_mb"] = rss;
        rep.metrics["op_p50_ms"] = median(stepS) * 1e3;
    } else {
        spans.report(rep);
    }
    return rep.emit();
}

// ---------------------------------------------------------------------------
// serve_mix

/** The first spec: a fixed 16-device request answered during set-up,
 *  so set-up ends with a fresh daemon's first cold plan (a full DP and
 *  the store's first write). */
PlanRequest
firstSpec()
{
    PlanRequest r;
    r.model = "OPT 6.7B";
    r.devices = 16;
    r.batch = 8;
    return r;
}

/**
 * The specs connection 0 introduces, each new to the daemon:
 * firstSpec(), then rounds of three in seeded order — a new 8-device
 * and a new 4-device spec (a model, batch and Eq. 7 alpha never asked
 * before, so a full DP), and one that shares the previous round's
 * operators at another depth (catalog and segment caches hit). Each
 * device count walks its own seeded shuffle of every (model, batch)
 * pair, and shared specs alternate between 8- and 4-device bases, so
 * every seed asks for the same work in a different order.
 */
std::vector<PlanRequest>
writerSpecs(std::uint64_t seed, int count)
{
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 17);
    std::vector<PlanRequest> deck;
    for (const ModelConfig &m : evaluationModels()) {
        for (const std::int64_t batch : {8, 16}) {
            PlanRequest r;
            r.model = m.name;
            r.batch = batch;
            deck.push_back(r);
        }
    }
    std::vector<PlanRequest> decks[2] = {deck, deck}; // 8 / 4 devices
    std::vector<PlanRequest> specs{firstSpec()};
    std::size_t base[2] = {0, 0}; // latest new spec per device count
    for (int round = 0; static_cast<int>(specs.size()) < count; ++round) {
        const std::size_t prev[2] = {base[0], base[1]};
        int kinds[] = {0, 1, 2}; // 8 devices, 4 devices, shared
        std::shuffle(std::begin(kinds), std::end(kinds), rng);
        for (const int kind : kinds) {
            PlanRequest r;
            if (kind < 2) {
                const std::size_t i = round % deck.size();
                if (i == 0)
                    std::shuffle(decks[kind].begin(), decks[kind].end(),
                                 rng);
                r = decks[kind][i];
                r.devices = kind == 0 ? 8 : 4;
                // Distinct per spec: steps of 1e-3, jitter below that.
                r.alpha = 1e-3 * static_cast<double>(specs.size()) +
                          1e-6 * static_cast<double>(rng() % 1000);
                base[kind] = specs.size();
            } else {
                r = specs[prev[round % 2]];
                r.layers = modelByName(r.model).numLayers + 1 +
                           static_cast<int>(specs.size());
            }
            specs.push_back(r);
        }
    }
    specs.resize(static_cast<std::size_t>(count));
    return specs;
}

/** The plan a direct optimizer run gives for @p req — built here from
 *  the request alone, apart from the daemon's request path. */
DpResult
referencePlan(const PlanRequest &req)
{
    ModelConfig model = modelByName(req.model);
    if (req.layers > 0)
        model.numLayers = req.layers;
    const ClusterTopology topo = ClusterTopology::paperCluster(req.devices);
    const CostModel cost(topo, profileModels(topo), req.alpha);
    const CompGraph graph = buildTransformerBlock(model, req.batch);
    DpOptions opts;
    opts.numLayers = model.numLayers;
    opts.numThreads = 1;
    return SegmentedDpOptimizer(graph, cost, opts).optimize();
}

/** One answered request. The plan itself is checked as it arrives
 *  (see runServe), so a run keeps no copy of it. */
struct Answer
{
    std::size_t spec = 0;
    double doneS = 0.0; ///< completion time, steady clock
    double clientUs = 0.0;
    double serverUs = 0.0; ///< service time the daemon reports with it
    std::string source;
    bool ok = false;
};

int
runServe(std::uint64_t seed, double seconds, bool trace, int port,
         const std::string &storePath)
{
    const int writes =
        std::max(1, static_cast<int>(seconds * kWritesPer10S / 10 + 1e-9));
    const std::vector<PlanRequest> specs = writerSpecs(seed, writes + 1);

    std::vector<PlanClient> conns;
    std::mutex mu;
    std::size_t answered = 0; // specs [0, answered) are in the store
    // The first answer to each spec, written before `answered` admits
    // the spec to repeats and read-only after. Every repeat must equal
    // it bit for bit; after the run it is checked against a direct
    // optimizer run.
    std::vector<PlanResponse> firsts(specs.size());
    std::vector<std::vector<Answer>> answers(1 + kReaders);
    std::vector<std::string> mismatch(1 + kReaders);
    // The daemon drops a connection whose request lands as its 200 ms
    // idle poll expires (CHANGES.md); host stalls longer than the poll
    // trigger it now and then. Such a request never reached the
    // service, so it is sent again on a new connection, and counted.
    std::int64_t reconnects = 0;
    auto call = [&](std::size_t c, auto &&send) {
        for (int attempt = 0;; ++attempt) {
            try {
                return send(conns[c]);
            } catch (const RuntimeError &e) {
                if (attempt == kMaxReconnects)
                    throw;
                std::fprintf(stderr, "connection %zu dropped (%s); "
                             "reconnecting\n", c, e.what());
                conns[c] = PlanClient("127.0.0.1", port);
                std::lock_guard<std::mutex> lock(mu);
                ++reconnects;
            }
        }
    };
    auto ask = [&](std::size_t c, std::size_t spec, bool fresh) {
        Answer a;
        a.spec = spec;
        const double s0 = nowS();
        PlanResponse resp = call(
            c, [&](PlanClient &client) { return client.plan(specs[spec]); });
        a.doneS = nowS();
        a.clientUs = (a.doneS - s0) * 1e6;
        a.source = resp.source;
        a.serverUs = resp.serverUs;
        a.ok = resp.ok;
        if (fresh)
            firsts[spec] = std::move(resp);
        else if (resp.ok && mismatch[c].empty())
            mismatch[c] = checkSameAnswer(resp, firsts[spec],
                                          "served " + specs[spec].summary());
        answers[c].push_back(std::move(a));
    };
    // Each connection waits kThinkTime after a new spec's answer or a
    // burst of repeats, then sends its next request.
    conns.emplace_back("127.0.0.1", port);
    ask(0, 0, true);
    answered = 1;
    for (int c = 0; c < kReaders; ++c)
        conns.emplace_back("127.0.0.1", port);
    ready();

    std::string error;
    std::vector<double> lastDone(conns.size(), 0.0);
    const double t0 = nowS();
    const double deadline = t0 + seconds;
    // Connection 0 sends spec k once its slot t0 + (k-1) * interval has
    // come, bursts of repeats otherwise; the others only send bursts of
    // repeats of answered specs.
    auto loop = [&](std::size_t c) {
        std::mt19937_64 rng(seed * 1000003 + c);
        try {
            for (;;) {
                std::size_t spec = 0;
                std::size_t known = 0;
                bool fresh = false;
                {
                    std::lock_guard<std::mutex> lock(mu);
                    const double now = nowS();
                    if (!error.empty())
                        return;
                    fresh = c == 0 && answered < specs.size() &&
                            now >= t0 + (answered - 1) * kWriteIntervalS;
                    if (!fresh && now >= deadline &&
                        (c != 0 || answered == specs.size()))
                        return;
                    known = answered;
                }
                if (fresh) {
                    spec = known;
                    ask(c, spec, true);
                } else {
                    for (int b = 0; b < kBurst; ++b)
                        ask(c, rng() % known, false);
                }
                lastDone[c] = answers[c].back().doneS;
                std::this_thread::sleep_for(kThinkTime);
                if (fresh) {
                    std::lock_guard<std::mutex> lock(mu);
                    answered = spec + 1;
                }
            }
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lock(mu);
            if (error.empty()) {
                char where[96];
                std::snprintf(where, sizeof where,
                              " (connection %zu, %.3f s into the run, "
                              "after %zu answers)",
                              c, nowS() - t0, answers[c].size());
                error = e.what() + std::string(where);
            }
        }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns.size(); ++c)
        threads.emplace_back(loop, c);
    for (std::thread &t : threads)
        t.join();
    // Stats and shutdown go over the connection answered last.
    const auto last = static_cast<std::size_t>(
        std::max_element(lastDone.begin(), lastDone.end()) -
        lastDone.begin());
    const JsonValue stats =
        call(last, [](PlanClient &client) { return client.stats(); });
    call(last, [](PlanClient &client) { return client.shutdown(); });

    Report rep;
    if (!error.empty())
        rep.check("client error: " + error);
    ServeTally tally;
    tally.distinctSpecs = static_cast<std::int64_t>(answered);
    for (std::size_t s = 0; s < answered; ++s) {
        const PlanResponse &first = firsts[s];
        if (first.ok)
            rep.check(checkSamePlan(first.strategies, first.layerCostUs,
                                    first.totalCostUs,
                                    referencePlan(specs[s]),
                                    "served " + specs[s].summary()));
    }
    for (const std::string &m : mismatch)
        rep.check(m);
    std::vector<double> warmUs, serviceMs;
    std::string serviceTimeError;
    std::map<std::string, std::vector<double>> coldMs;
    // Completions per window: the median window rate shrugs off a
    // host hiccup that a whole-run mean would absorb.
    std::vector<double> perWindow(
        static_cast<std::size_t>(std::ceil(seconds / kWindowS)), 0.0);
    for (const std::vector<Answer> &conn : answers) {
        for (const Answer &a : conn) {
            ++tally.sent;
            ++tally.bySource[a.source];
            ++rep.attempted;
            if (!a.ok) {
                ++rep.failed;
                continue;
            }
            if (a.spec == 0 && a.source == "dp")
                continue; // the set-up request
            const PlanRequest &r = specs[a.spec];
            if (serviceTimeError.empty())
                serviceTimeError = checkServiceTime(a.serverUs, a.clientUs);
            serviceMs.push_back(a.serverUs / 1e3);
            const auto w =
                static_cast<std::size_t>((a.doneS - t0) / kWindowS);
            if (w < perWindow.size())
                perWindow[w] += 1.0 / kWindowS;
            if (a.source == "store" || a.source == "cache")
                warmUs.push_back(a.clientUs);
            else if (a.source == "dp")
                coldMs[r.layers > 0 ? "shared"
                                    : "new" + std::to_string(r.devices)]
                    .push_back(a.clientUs / 1e3);
        }
    }
    rep.check(serviceTimeError);
    rep.check(checkServeCounters(tally, stats));

    std::vector<double> cold;
    for (const auto &[kind, v] : coldMs) {
        // Per-kind cold latency for the README's reference figures.
        std::fprintf(stderr, "cold %s: n=%zu p50 %.2f ms\n", kind.c_str(),
                     v.size(), median(v));
        cold.insert(cold.end(), v.begin(), v.end());
    }
    if (!trace) {
        // The service time each answer carries, not the client round
        // trip: after the think time the round trip is mostly the
        // host's wake-up latency for two idle threads, which moved
        // its median by 40-50% between runs of the same code
        // (README.md, "End-to-end metrics").
        rep.metrics["op_p50_ms"] = median(serviceMs);
    } else {
        const JsonValue &counters = stats.at("counters");
        const JsonValue &hist = stats.at("histograms");
        auto counter = [&](const char *name) {
            const JsonValue *v = counters.find(name);
            return v ? v->asNumber() : 0.0;
        };
        auto histField = [&](const char *name, const char *field) {
            const JsonValue *h = hist.find(name);
            return h ? h->at(field).asNumber() : 0.0;
        };
        rep.metrics["serve.requests_per_s"] = median(perWindow);
        rep.metrics["serve.warm_p50_us"] = median(warmUs);
        rep.metrics["serve.warm_p99_us"] = percentile(warmUs, 99);
        rep.metrics["serve.cold_p50_ms"] = median(cold);
        rep.metrics["serve.reconnects"] = static_cast<double>(reconnects);
        rep.metrics["serve.server_p50_us"] =
            histField("serve.request_us", "p50");
        for (const char *name : {"store_hits", "cache_hits", "coalesced",
                                 "dp_runs", "store_writes"}) {
            const std::string key = std::string("serve.") + name;
            rep.metrics[key] = counter(key.c_str());
        }
        std::ifstream store(storePath, std::ios::binary | std::ios::ate);
        rep.metrics["serve.store_bytes"] =
            store ? static_cast<double>(store.tellg()) : 0.0;
        const double dp = std::max(1.0, counter("serve.dp_runs"));
        for (const char *phase :
             {"catalog_ms", "pilot_ms", "edge_table_ms", "dp_ms"})
            rep.metrics[std::string("optimizer.") + phase] =
                histField(("planner." + std::string(phase)).c_str(),
                          "sum") /
                dp;
        for (const char *name :
             {"candidates_total", "candidates_kept", "states_pruned"})
            rep.metrics[std::string("optimizer.") + name] =
                counter(("planner." + std::string(name)).c_str()) / dp;
    }
    return rep.emit();
}

// ---------------------------------------------------------------------------
// selftest: every check must reject a perturbed input.

int
runSelftest()
{
    int bad = 0;
    auto expect = [&](bool ok, const char *what) {
        std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
        bad += ok ? 0 : 1;
    };

    // Losses and parameters: a tiny partitioned run vs its 1-device
    // reference.
    TrainerOptions small = trainOptions(7, 2);
    small.model.hiddenSize = 32;
    small.model.ffnSize = 64;
    small.model.seqLength = 8;
    BlockTrainer part(small);
    small.runtime.numBits = 0;
    BlockTrainer single(small);
    std::vector<double> a, b;
    for (int i = 0; i < 3; ++i) {
        a.push_back(part.trainStep().loss);
        b.push_back(single.trainStep().loss);
    }
    expect(checkLossesClose(a, b, kLossRelTol).empty(),
           "partitioned losses agree with the 1-device run");
    std::vector<double> perturbed = a;
    perturbed[1] *= 1.001;
    expect(!checkLossesClose(perturbed, b, kLossRelTol).empty(),
           "a perturbed loss is rejected");
    perturbed = a;
    perturbed[2] = std::nan("");
    expect(!checkLossesFinite(perturbed).empty(),
           "a NaN loss is rejected");
    auto params = part.checkpoint().params;
    expect(checkParamsClose(params, single.checkpoint().params,
                            kParamRelTol)
               .empty(),
           "partitioned parameters agree with the 1-device run");
    {
        Tensor &w = params.begin()->second;
        Tensor bumped = w;
        bumped.scale(1.01f);
        w = bumped;
    }
    expect(!checkParamsClose(params, single.checkpoint().params,
                             kParamRelTol)
                .empty(),
           "a perturbed parameter is rejected");

    // Plans: a served plan with two strategies swapped.
    PlanRequest req;
    req.devices = 4;
    const DpResult ref = referencePlan(req);
    expect(checkSamePlan(ref.strategies, ref.layerCost, ref.totalCost,
                         ref, "plan")
               .empty(),
           "an identical plan is accepted");
    std::vector<PartitionSeq> swapped = ref.strategies;
    std::size_t j = 1;
    while (j < swapped.size() && swapped[j] == swapped[0])
        ++j;
    if (j < swapped.size())
        std::swap(swapped[0], swapped[j]);
    expect(j < swapped.size() &&
               !checkSamePlan(swapped, ref.layerCost, ref.totalCost, ref,
                              "plan")
                    .empty(),
           "a swapped strategy is rejected");
    expect(!checkSamePlan(ref.strategies, std::nextafter(ref.layerCost, 0.0),
                          ref.totalCost, ref, "plan")
                .empty(),
           "a cost one ulp off is rejected");
    PlanResponse first;
    first.strategies = ref.strategies;
    first.layerCostUs = ref.layerCost;
    first.totalCostUs = ref.totalCost;
    PlanResponse repeat = first;
    expect(checkSameAnswer(repeat, first, "repeat").empty(),
           "a repeat equal to its first answer is accepted");
    repeat.strategies = swapped;
    expect(!checkSameAnswer(repeat, first, "repeat").empty(),
           "a repeat with a swapped strategy is rejected");
    expect(!checkNoWorse(2.0, 1.0, "baseline").empty() &&
               checkNoWorse(1.0, 1.0, "baseline").empty(),
           "a plan costlier than a baseline is rejected");

    expect(checkServiceTime(180.0, 350.0).empty() &&
               !checkServiceTime(351.0, 350.0).empty() &&
               !checkServiceTime(0.0, 350.0).empty(),
           "a service time outside its round trip is rejected");

    // Server counters: one miscounted counter.
    ServeTally tally;
    tally.bySource = {{"store", 40}, {"dp", 6}};
    tally.sent = 46;
    tally.distinctSpecs = 6;
    auto statsWith = [&](std::int64_t store, std::int64_t dp) {
        JsonValue counters = JsonValue::object();
        counters.set("serve.requests", std::int64_t{46});
        counters.set("serve.store_hits", store);
        counters.set("serve.dp_runs", dp);
        JsonValue doc = JsonValue::object();
        doc.set("counters", std::move(counters));
        return doc;
    };
    expect(checkServeCounters(tally, statsWith(40, 6)).empty(),
           "consistent server counters are accepted");
    expect(!checkServeCounters(tally, statsWith(39, 6)).empty(),
           "a miscounted store_hits is rejected");
    expect(!checkServeCounters(tally, statsWith(41, 5)).empty(),
           "a shifted per-source tally is rejected");
    tally.distinctSpecs = 5;
    expect(!checkServeCounters(tally, statsWith(40, 6)).empty(),
           "dp_runs above the distinct specs is rejected");

    std::printf("selftest: %s\n", bad ? "FAILED" : "passed");
    return bad ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: perfbench_driver plan|train|serve|selftest"
                     " [--seed N] [--seconds S] [--trace 0|1] ...\n");
        return 2;
    }
    const std::string mode = argv[1];
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int port = 0;
    std::string lossesOut, storePath;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--seed")
            seed = std::strtoull(next(), nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::atof(next());
        else if (arg == "--trace")
            trace = std::atoi(next()) != 0;
        else if (arg == "--port")
            port = std::atoi(next());
        else if (arg == "--store")
            storePath = next();
        else if (arg == "--losses-out")
            lossesOut = next();
        else {
            std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
            return 2;
        }
    }
    try {
        if (mode == "plan")
            return runPlan(seconds, trace);
        if (mode == "train")
            return runTrain(seed, seconds, trace, lossesOut);
        if (mode == "serve")
            return runServe(seed, seconds, trace, port, storePath);
        if (mode == "selftest")
            return runSelftest();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
    return 2;
}
