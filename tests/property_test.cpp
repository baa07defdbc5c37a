// Property-based invariant suite (tests/proptest.h harness).
//
// Randomized op sequences and inputs against the hot-loop data structures
// the SoA rewrite introduced, each checked against either a simple
// model (map, vector) or the frozen legacy implementation as oracle:
//
//  * CacheBuffer vs an ordered-map model — byte accounting and the
//    used() <= capacity() invariant after every op;
//  * solve_knapsack workspace form vs the convenience form — identical
//    results, plus Eq. 7 feasibility (quantized total never exceeds the
//    byte capacity);
//  * plan_replacement workspace form vs the legacy allocating oracle under
//    identical RNG seeds — identical plans, identical RNG consumption;
//  * replacement plans are union-preserving partitions (Alg. 1 never
//    duplicates or invents data) within both nodes' capacities;
//  * the fast simulator engine vs the reference engine on randomized
//    mini-traces and experiment configs — bit-identical metrics (the
//    randomized counterpart of tests/engine_golden_test.cpp's pinned
//    matrix), and equal protocol state (counters, tokens in flight, every
//    node's cache) when both run as the two schemes of one lane;
//  * opportunistic path tables on random rate graphs — weights are
//    monotone non-increasing along every parent chain (the greedy
//    max-probability construction depends on it);
//  * the production path kernel vs the reference construction on graphs
//    drawn from a small rate pool (repeats, near-duplicates, distinct
//    rates) and on tie-heavy star and clique graphs of one or two rates —
//    bit-identical tables, the same evals in every hypoexp tier, and every
//    tier reached;
//  * the subtree-local re-settle of a root after some of its tree edges
//    were slowed or removed, and after batches that also speed up or add
//    edges, with extra subtrees seeded by dtnd's adoption rule or at
//    random — it declines or returns the reference's table on the new
//    graph, field for field, on saturating, tie-heavy and
//    continuous-rate graphs;
//  * seeded byte-, token- and line-level mutants of every untrusted input
//    (the trace fixtures and a dtnd script) either load a valid trace or
//    fail with a std::runtime_error naming their source.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cache/knapsack.h"
#include "cache/ncl_scheme.h"
#include "cache/ncl_scheme_reference.h"
#include "cache/replacement.h"
#include "common/instrument.h"
#include "common/rng.h"
#include "common/types.h"
#include "daemon/daemon.h"
#include "daemon/script.h"
#include "experiment/experiment.h"
#include "graph/ncl.h"
#include "graph/opportunistic_path.h"
#include "net/buffer.h"
#include "sim/engine.h"
#include "tests/proptest.h"
#include "trace/synthetic.h"
#include "traceio/cache.h"
#include "traceio/reader.h"
#include "workload/workload.h"

namespace dtn {
namespace {

using proptest::run_property;

TEST(Property, CacheBufferMatchesMapModel) {
  run_property("cache_buffer_model", 40, [](Rng& rng, int) {
    const Bytes capacity = rng.uniform_int(1, 4000);
    CacheBuffer buffer(capacity);
    std::map<DataId, Bytes> model;

    const int ops = static_cast<int>(rng.uniform_int(50, 300));
    for (int op = 0; op < ops; ++op) {
      const DataId id = rng.uniform_int(0, 24);
      const double dice = rng.uniform();
      if (dice < 0.55) {
        const Bytes size = rng.uniform_int(1, std::max<Bytes>(1, capacity / 3));
        const bool expect_ok =
            model.find(id) == model.end() && size <= buffer.free();
        ASSERT_EQ(buffer.insert(id, size), expect_ok);
        if (expect_ok) model.emplace(id, size);
      } else if (dice < 0.85) {
        ASSERT_EQ(buffer.erase(id), model.erase(id) > 0);
      } else {
        const auto it = model.find(id);
        ASSERT_EQ(buffer.contains(id), it != model.end());
        if (it != model.end()) {
          ASSERT_EQ(buffer.size_of(id), it->second);
        }
      }

      // Core invariants, re-checked after *every* op.
      Bytes used = 0;
      for (const auto& [mid, msize] : model) used += msize;
      ASSERT_EQ(buffer.used(), used);
      ASSERT_LE(buffer.used(), buffer.capacity());
      ASSERT_EQ(buffer.count(), model.size());
      ASSERT_EQ(buffer.free(), capacity - used);
    }

    std::vector<DataId> items = buffer.items();
    std::sort(items.begin(), items.end());
    std::vector<DataId> expected;
    for (const auto& [mid, msize] : model) expected.push_back(mid);
    ASSERT_EQ(items, expected);
  });
}

TEST(Property, KnapsackWorkspaceMatchesConvenienceAndFeasible) {
  run_property("knapsack_workspace", 60, [](Rng& rng, int) {
    const int n = static_cast<int>(rng.uniform_int(0, 24));
    std::vector<KnapsackItem> items;
    for (int i = 0; i < n; ++i) {
      KnapsackItem item;
      item.value = rng.uniform();
      item.size = rng.uniform_int(1, 8 << 20);
      items.push_back(item);
    }
    const Bytes unit = 1 << static_cast<int>(rng.uniform_int(16, 21));
    const Bytes capacity = rng.uniform_int(0, 24LL << 20);

    const KnapsackResult oracle = solve_knapsack(items, capacity, unit);
    KnapsackWorkspace ws;
    KnapsackResult fast;
    solve_knapsack(items, capacity, unit, ws, fast);

    ASSERT_EQ(fast.selected, oracle.selected);
    ASSERT_EQ(fast.total_value, oracle.total_value);
    ASSERT_EQ(fast.total_size, oracle.total_size);

    // Feasibility (Eq. 7): the quantized sizes are rounded up, so the
    // exact byte total can never exceed the byte capacity.
    Bytes total = 0;
    std::set<std::size_t> seen;
    for (std::size_t idx : fast.selected) {
      ASSERT_LT(idx, items.size());
      ASSERT_TRUE(seen.insert(idx).second) << "index selected twice";
      total += items[idx].size;
    }
    ASSERT_EQ(total, fast.total_size);
    ASSERT_LE(total, capacity);
  });
}

// Shared generator for the two replacement properties: a pool of distinct
// data ids with randomized sizes, popularities and holders, plus a
// randomized exchange mode (probabilistic or pure knapsack). Pools are
// zero-heavy like the ones real exchanges build: Eq. 6 gives popularity
// exactly 0 to an item with fewer than two recorded requests, so most of
// Algorithm 1's rounds have no item with positive utility that fits, and
// the workspace planner stops at the first such round. Exact 0 and 1
// popularities and weights also hit Rng::bernoulli's no-draw edges.
struct ExchangeCase {
  std::vector<ReplacementItem> pool;
  Bytes capacity_a = 0;
  Bytes capacity_b = 0;
  double weight_a = 0.0;
  double weight_b = 0.0;
  ReplacementConfig config;
  std::uint64_t rng_seed = 0;
};

ExchangeCase make_exchange_case(Rng& rng) {
  ExchangeCase c;
  const int n = static_cast<int>(rng.uniform_int(0, 20));
  Bytes pool_bytes = 0;
  for (int i = 0; i < n; ++i) {
    ReplacementItem item;
    item.id = 100 + i;  // distinct by construction (a pool precondition)
    item.size = rng.uniform_int(1, 6 << 20);
    const double kind = rng.uniform();
    item.popularity = kind < 0.5 ? 0.0 : kind < 0.6 ? 1.0 : rng.uniform();
    item.at_a = rng.bernoulli(0.5);
    pool_bytes += item.size;
    c.pool.push_back(item);
  }
  rng.shuffle(c.pool);
  c.capacity_a = rng.uniform_int(0, std::max<Bytes>(1, pool_bytes));
  c.capacity_b = rng.uniform_int(0, std::max<Bytes>(1, pool_bytes));
  auto draw_weight = [&rng]() {
    const double kind = rng.uniform();
    return kind < 0.15 ? 0.0 : kind < 0.3 ? 1.0 : rng.uniform();
  };
  c.weight_a = draw_weight();
  c.weight_b = draw_weight();
  c.config.probabilistic = rng.bernoulli(0.75);
  c.rng_seed = rng();
  return c;
}

TEST(Property, ReplacementWorkspaceMatchesOracle) {
  run_property("replacement_oracle", 60, [](Rng& rng, int) {
    const ExchangeCase c = make_exchange_case(rng);

    Rng rng_oracle(c.rng_seed);
    const ReplacementPlan oracle =
        plan_replacement(c.pool, c.capacity_a, c.capacity_b, c.weight_a,
                         c.weight_b, c.config, rng_oracle);

    Rng rng_fast(c.rng_seed);
    ReplacementWorkspace ws;
    ReplacementPlan fast;
    // Run twice through the same workspace: the second exchange must be
    // unaffected by whatever scratch the first one left behind.
    plan_replacement(c.pool, c.capacity_a, c.capacity_b, c.weight_a,
                     c.weight_b, c.config, rng_fast, ws, fast);
    Rng rng_again(c.rng_seed);
    plan_replacement(c.pool, c.capacity_a, c.capacity_b, c.weight_a,
                     c.weight_b, c.config, rng_again, ws, fast);

    ASSERT_EQ(fast.keep_at_a, oracle.keep_at_a);
    ASSERT_EQ(fast.keep_at_b, oracle.keep_at_b);
    ASSERT_EQ(fast.dropped, oracle.dropped);
    ASSERT_EQ(fast.moved, oracle.moved);
    ASSERT_EQ(fast.moved_bytes, oracle.moved_bytes);

    // Identical RNG consumption, not merely identical plans: the next draw
    // from both streams must agree.
    ASSERT_EQ(rng_fast(), rng_oracle());
  });
}

TEST(Property, ReplacementPlanPartitionsPoolWithinCapacity) {
  run_property("replacement_partition", 60, [](Rng& rng, int) {
    const ExchangeCase c = make_exchange_case(rng);
    Rng plan_rng(c.rng_seed);
    ReplacementWorkspace ws;
    ReplacementPlan plan;
    plan_replacement(c.pool, c.capacity_a, c.capacity_b, c.weight_a,
                     c.weight_b, c.config, plan_rng, ws, plan);

    std::map<DataId, Bytes> sizes;
    for (const ReplacementItem& item : c.pool) sizes.emplace(item.id, item.size);

    // Union preservation (Alg. 1): every pooled id lands in exactly one of
    // keep_at_a / keep_at_b / dropped — nothing duplicated, nothing new.
    std::vector<DataId> placed;
    Bytes bytes_a = 0;
    Bytes bytes_b = 0;
    for (DataId id : plan.keep_at_a) {
      ASSERT_TRUE(sizes.count(id));
      bytes_a += sizes.at(id);
      placed.push_back(id);
    }
    for (DataId id : plan.keep_at_b) {
      ASSERT_TRUE(sizes.count(id));
      bytes_b += sizes.at(id);
      placed.push_back(id);
    }
    for (DataId id : plan.dropped) {
      ASSERT_TRUE(sizes.count(id));
      placed.push_back(id);
    }
    ASSERT_EQ(placed.size(), c.pool.size());
    std::sort(placed.begin(), placed.end());
    ASSERT_TRUE(std::adjacent_find(placed.begin(), placed.end()) ==
                placed.end())
        << "a data id was placed twice";

    // Capacity (Eq. 7 feasibility at both nodes).
    ASSERT_LE(bytes_a, c.capacity_a);
    ASSERT_LE(bytes_b, c.capacity_b);

    // moved is a subset of the keeps, and moved_bytes is its byte total.
    std::set<DataId> kept(plan.keep_at_a.begin(), plan.keep_at_a.end());
    kept.insert(plan.keep_at_b.begin(), plan.keep_at_b.end());
    Bytes moved_bytes = 0;
    for (DataId id : plan.moved) {
      ASSERT_TRUE(kept.count(id)) << "moved item was not kept";
      moved_bytes += sizes.at(id);
    }
    ASSERT_EQ(plan.moved_bytes, moved_bytes);
  });
}

TEST(Property, FastEngineMatchesReferenceOnRandomMiniTraces) {
  // The randomized counterpart of engine_golden_test's pinned matrix:
  // small random traces and experiment configs, fast vs reference engines,
  // raw-double equality on every aggregate metric, then equal protocol
  // state. Half the cases run on tight links and buffers (see below). Each
  // case runs three simulations of a few milliseconds.
  NclCachingScheme::Counters totals;
  std::uint64_t responses = 0;
  std::uint64_t exchanges = 0;
  std::size_t tokens_left = 0;
  run_property("engine_equivalence", 80, [&](Rng& rng, int) {
    SyntheticTraceConfig tc;
    tc.node_count = static_cast<NodeId>(rng.uniform_int(12, 20));
    tc.duration = days(rng.uniform(0.5, 1.0));
    tc.target_total_contacts =
        static_cast<double>(tc.node_count) *
        static_cast<double>(rng.uniform_int(60, 150));
    tc.community_count = rng.bernoulli(0.5) ? 3 : 0;
    tc.seed = rng();
    const ContactTrace trace = generate_trace(tc);

    ExperimentConfig config;
    // Lifetimes from 2 h: items expire while their push tokens are still
    // in flight, so token pruning shows in the protocol-state comparison.
    config.avg_lifetime = hours(rng.uniform(2.0, 24.0));
    config.avg_data_size = megabits(rng.uniform(10.0, 50.0));
    config.ncl_count = static_cast<int>(rng.uniform_int(1, 3));
    config.repetitions = 1;
    config.auto_horizon = false;
    config.sim.path_horizon = hours(2);
    config.sim.maintenance_interval = hours(rng.uniform(6.0, 48.0));
    config.dynamic_ncl = rng.bernoulli(0.3);
    const CacheStrategy strategies[] = {
        CacheStrategy::kUtilityExchange, CacheStrategy::kFifo,
        CacheStrategy::kLru, CacheStrategy::kGds};
    config.strategy = strategies[rng.uniform_int(0, 3)];
    const ResponseMode modes[] = {ResponseMode::kPathWeight,
                                  ResponseMode::kSigmoid, ResponseMode::kAlways};
    config.response_mode = modes[rng.uniform_int(0, 2)];
    config.seed = rng();
    // Tight links and buffers of one to a few items: the exchange's
    // fallbacks then run, i.e. moves the link budget refuses, restores at
    // the origin that fail for lack of space, and pushes that stop full.
    if (rng.bernoulli(0.5)) {
      config.sim.bandwidth_per_second = megabits(rng.uniform(0.02, 0.5));
      config.buffer_min = static_cast<Bytes>(
          rng.uniform(1.0, 1.6) * static_cast<double>(config.avg_data_size));
      config.buffer_max = static_cast<Bytes>(
          rng.uniform(1.0, 2.5) * static_cast<double>(config.buffer_min));
    }

    config.sim.sim_engine = SimEngine::kFast;
    const ExperimentResult fast =
        run_experiment(trace, SchemeKind::kNclCache, config);
    config.sim.sim_engine = SimEngine::kReference;
    const ExperimentResult ref =
        run_experiment(trace, SchemeKind::kNclCache, config);

    const auto expect_stats = [](const RunningStats& f, const RunningStats& r) {
      ASSERT_EQ(f.count(), r.count());
      ASSERT_EQ(f.mean(), r.mean());
      ASSERT_EQ(f.variance(), r.variance());
      ASSERT_EQ(f.min(), r.min());
      ASSERT_EQ(f.max(), r.max());
    };
    expect_stats(fast.success_ratio, ref.success_ratio);
    expect_stats(fast.delay_hours, ref.delay_hours);
    expect_stats(fast.copies_per_item, ref.copies_per_item);
    expect_stats(fast.replacement_overhead, ref.replacement_overhead);
    expect_stats(fast.queries_issued, ref.queries_issued);
    expect_stats(fast.queries_satisfied, ref.queries_satisfied);
    expect_stats(fast.gigabytes_transferred, ref.gigabytes_transferred);
    expect_stats(fast.duplicate_deliveries, ref.duplicate_deliveries);

    // Protocol state, not only aggregates: both schemes, built from one
    // config, run as the two cells of one lane. Each cell draws from
    // Rng(lane.seed), so both see the same contacts, tables and random
    // stream, and their bundle queues and token bookkeeping must agree.
    const WarmupContext warmup = make_warmup_context(trace, config);
    NclSchemeConfig nc;
    nc.central_nodes = select_ncls(warmup.graph, warmup.horizon,
                                   config.ncl_count, config.sim.max_hops,
                                   config.sim.threads)
                           .central_nodes;
    nc.buffer_capacity =
        draw_buffer_capacities(config, trace.node_count(), config.seed);
    nc.response_mode = config.response_mode;
    nc.strategy = config.strategy;
    nc.dynamic_ncl = config.dynamic_ncl;
    NclCachingScheme fast_scheme(nc);
    NclCachingSchemeReference ref_scheme(nc);
    WorkloadConfig wc;
    wc.start = trace.start_time() + trace.duration() / 2.0;
    wc.end = trace.end_time();
    wc.avg_lifetime = config.avg_lifetime;
    wc.avg_size = config.avg_data_size;
    wc.seed = config.seed;
    const Workload workload = generate_workload(wc, trace.node_count());
    SimConfig sc = config.sim;
    sc.path_horizon = warmup.horizon;
    run_simulation(
        trace, {SimLane{&workload, {&fast_scheme, &ref_scheme}, config.seed}},
        sc);

    const auto& counters = fast_scheme.counters();
    ASSERT_EQ(counters, ref_scheme.counters());
    ASSERT_EQ(fast_scheme.responses_sent(), ref_scheme.responses_sent());
    ASSERT_EQ(fast_scheme.replacement_exchanges(),
              ref_scheme.replacement_exchanges());
    ASSERT_EQ(fast_scheme.push_tokens_in_flight(),
              ref_scheme.push_tokens_in_flight());
    const DataRegistry& registry = workload.registry();
    for (NodeId node = 0; node < trace.node_count(); ++node) {
      for (DataId id = 0; id < static_cast<DataId>(registry.size()); ++id) {
        ASSERT_EQ(fast_scheme.node_caches(node, id),
                  ref_scheme.node_caches(node, id))
            << "node " << node << ", data " << id;
      }
    }
    ASSERT_TRUE(fast_scheme.check_invariants(registry));
    ASSERT_TRUE(ref_scheme.check_invariants(registry));

    totals.tokens_settled += counters.tokens_settled;
    totals.tokens_stopped_full += counters.tokens_stopped_full;
    totals.tokens_expired += counters.tokens_expired;
    totals.queries_reached_central += counters.queries_reached_central;
    totals.responses_delivered += counters.responses_delivered;
    responses += fast_scheme.responses_sent();
    exchanges += fast_scheme.replacement_exchanges();
    tokens_left += fast_scheme.push_tokens_in_flight();
  });
  // Every kind of state compared above must occur somewhere in the run,
  // or an equality would hold vacuously.
  EXPECT_GT(totals.tokens_settled, 0u);
  EXPECT_GT(totals.tokens_stopped_full, 0u);
  EXPECT_GT(totals.tokens_expired, 0u);
  EXPECT_GT(totals.queries_reached_central, 0u);
  EXPECT_GT(totals.responses_delivered, 0u);
  EXPECT_GT(responses, 0u);
  EXPECT_GT(exchanges, 0u);
  EXPECT_GT(tokens_left, 0u);
}

/// Random sparse rate graph with rates spanning ~3 decades, so path
/// weights spread across (0, 1).
ContactGraph random_contact_graph(Rng& rng) {
  const NodeId n = static_cast<NodeId>(rng.uniform_int(6, 40));
  ContactGraph graph(n);
  const double edge_prob = 0.05 + 0.4 * rng.uniform();
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (rng.uniform() >= edge_prob) continue;
      graph.set_rate(
          i, j, std::exp(rng.uniform(std::log(1e-5), std::log(1e-2))));
    }
  }
  return graph;
}

TEST(Property, PathWeightsMonotoneAlongParentChains) {
  run_property("path_chain_monotone", 30, [](Rng& rng, int) {
    const ContactGraph graph = random_contact_graph(rng);
    const Time horizon = rng.uniform(600.0, 6.0 * 3600.0);
    const int max_hops = static_cast<int>(rng.uniform_int(2, 6));
    const NodeId root =
        static_cast<NodeId>(rng.uniform_int(0, graph.node_count() - 1));
    const PathTable table =
        compute_opportunistic_paths(graph, root, horizon, max_hops);
    for (NodeId node = 0; node < graph.node_count(); ++node) {
      if (node == root || !table.reachable(node)) continue;
      // Walk the parent chain to the root: each step towards the root
      // drops one hypoexp stage, so the weight can only grow. The greedy
      // label-setting construction relies on this: a settled node's
      // weight bounds every path extended from it. The 1e-9 slack is the
      // engine's own relaxation tolerance (different hypoexp evaluation
      // algorithms can disagree in the last ulps near 1).
      NodeId cur = node;
      int steps = 0;
      while (cur != root) {
        const NodeId parent = table.entry(cur).next_hop;
        ASSERT_NE(parent, kNoNode);
        ASSERT_GE(table.weight(parent) + 1e-9, table.weight(cur));
        ASSERT_EQ(table.entry(parent).hops + 1, table.entry(cur).hops);
        cur = parent;
        ASSERT_LE(++steps, max_hops);
      }
    }
  });
}

/// Random rate graph whose rates come from a small pool, so chains reach
/// every hypoexp tier: each base rate comes with an exact repeat (Erlang
/// chains) and 1e-9-relative neighbours base * (1 + 1e-9) and
/// base * (1 + 2e-9) (near-equal pairs, and an append that lands inside
/// one), while distinct bases give the closed form.
ContactGraph pooled_rate_graph(Rng& rng) {
  const NodeId n = static_cast<NodeId>(rng.uniform_int(6, 24));
  std::vector<double> pool;
  const int bases = static_cast<int>(rng.uniform_int(2, 4));
  for (int b = 0; b < bases; ++b) {
    const double base = std::exp(rng.uniform(std::log(1e-5), std::log(1e-2)));
    pool.insert(pool.end(),
                {base, base, base * (1.0 + 1e-9), base * (1.0 + 2e-9)});
  }
  ContactGraph graph(n);
  const double edge_prob = 0.15 + 0.45 * rng.uniform();
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (rng.uniform() >= edge_prob) continue;
      graph.set_rate(i, j,
                     pool[static_cast<std::size_t>(rng.uniform_int(
                         0, static_cast<std::int64_t>(pool.size()) - 1))]);
    }
  }
  return graph;
}

std::uint64_t bits(double x) {
  std::uint64_t out = 0;
  std::memcpy(&out, &x, sizeof out);
  return out;
}

constexpr std::array<const char*, 4> kHypoexpTiers{
    "hypoexp_single_evals", "hypoexp_erlang_evals",
    "hypoexp_closed_form_evals", "hypoexp_uniformization_evals"};
using TierEvals = std::array<std::uint64_t, kHypoexpTiers.size()>;

/// A table and the evals its build made in each hypoexp tier (all zero
/// when the library does not count).
struct CountedTable {
  PathTable table;
  TierEvals evals;
};

template <typename Build>
CountedTable counted_build(Build&& build) {
  const instrument::StageStats before = instrument::snapshot();
  PathTable table = build();
  const instrument::StageStats delta =
      instrument::snapshot().delta_since(before);
  TierEvals evals{};
  for (std::size_t i = 0; i < kHypoexpTiers.size(); ++i) {
    evals[i] = delta.counter(kHypoexpTiers[i]);
  }
  return {std::move(table), evals};
}

/// Builds every root's table at `max_hops` with the reference construction
/// and with the production kernel, with the shared edge-exp table (as
/// every many-roots build does) and without it. The kernel's tables must
/// match the reference's bit for bit, and each kernel build must make
/// exactly the reference build's evals in every hypoexp tier: the chain
/// table flushes its single-stage and closed-form counts once per table.
/// Adds the edge-exp builds' tier counts to `kernel_evals`.
void expect_tables_match_reference(const ContactGraph& graph, Time horizon,
                                   int max_hops, TierEvals& kernel_evals) {
  const NodeId n = graph.node_count();
  const EdgeExpTable edge_exp = build_edge_exp_table(graph, horizon);
  for (NodeId root = 0; root < n; ++root) {
    const CountedTable reference = counted_build([&] {
      return compute_opportunistic_paths_reference(graph, root, horizon,
                                                   max_hops);
    });
    const CountedTable shared = counted_build([&] {
      return compute_opportunistic_paths(graph, root, horizon, max_hops,
                                         thread_path_workspace(), edge_exp);
    });
    const CountedTable own = counted_build([&] {
      return compute_opportunistic_paths(graph, root, horizon, max_hops);
    });
    for (std::size_t i = 0; i < kHypoexpTiers.size(); ++i) {
      kernel_evals[i] += shared.evals[i];
    }
    for (const CountedTable* built : {&shared, &own}) {
      for (NodeId node = 0; node < n; ++node) {
        const PathTable::Entry& got = built->table.entry(node);
        const PathTable::Entry& want = reference.table.entry(node);
        ASSERT_EQ(bits(got.weight), bits(want.weight))
            << "root " << root << " node " << node << " cap " << max_hops;
        ASSERT_EQ(bits(got.last_rate), bits(want.last_rate));
        ASSERT_EQ(got.next_hop, want.next_hop)
            << "root " << root << " node " << node << " cap " << max_hops;
        ASSERT_EQ(got.hops, want.hops);
      }
      for (std::size_t i = 0; i < kHypoexpTiers.size(); ++i) {
        ASSERT_EQ(built->evals[i], reference.evals[i])
            << kHypoexpTiers[i] << ", root " << root << " cap " << max_hops;
      }
    }
  }
}

TEST(Property, PathTablesMatchReferenceOnPooledRates) {
  // The production kernel derives each settled node's closed-form state
  // from its parent's; the reference re-evaluates every candidate chain
  // with hypoexp_cdf. Every root's table must agree bit for bit, at hop
  // caps 1-8 and at a cap no simple path reaches, on graphs built to hit
  // all four dispatch tiers.
  TierEvals kernel_evals{};
  run_property("path_tables_pooled_rates", 30, [&](Rng& rng, int) {
    const ContactGraph graph = pooled_rate_graph(rng);
    const NodeId n = graph.node_count();
    const Time horizon = rng.uniform(600.0, 6.0 * 3600.0);
    const int caps[] = {static_cast<int>(rng.uniform_int(1, 8)),
                        n + static_cast<int>(rng.uniform_int(0, 3))};
    for (const int max_hops : caps) {
      expect_tables_match_reference(graph, horizon, max_hops, kernel_evals);
    }
  });
  if (instrument::enabled()) {
    for (std::size_t i = 0; i < kHypoexpTiers.size(); ++i) {
      EXPECT_GT(kernel_evals[i], 0u) << kHypoexpTiers[i] << " never reached";
    }
  }
}

/// Star, clique or random graph whose edges carry one or two rate values,
/// so many labels tie exactly: every one-hop neighbour of a clique's root
/// gets the same weight, and so does every two-hop path of one rate pair.
ContactGraph tied_weight_graph(Rng& rng) {
  const NodeId n = static_cast<NodeId>(rng.uniform_int(3, 16));
  const double slow = std::exp(rng.uniform(std::log(1e-5), std::log(1e-2)));
  const double rates[] = {slow, rng.uniform() < 0.5
                                    ? slow
                                    : slow * rng.uniform(1.5, 4.0)};
  const auto draw_rate = [&] {
    return rates[rng.uniform() < 0.5 ? 0 : 1];
  };
  ContactGraph graph(n);
  const int shape = static_cast<int>(rng.uniform_int(0, 2));
  if (shape == 0) {  // star around a random hub, plus a few chords
    const NodeId hub = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    for (NodeId v = 0; v < n; ++v) {
      if (v != hub) graph.set_rate(hub, v, draw_rate());
    }
    const int chords = static_cast<int>(rng.uniform_int(0, n / 2));
    for (int c = 0; c < chords; ++c) {
      const NodeId a = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      const NodeId b = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      if (a != b && a != hub && b != hub) graph.set_rate(a, b, draw_rate());
    }
  } else {  // clique, or a random graph of the same two rates
    const double edge_prob = shape == 1 ? 1.0 : 0.2 + 0.5 * rng.uniform();
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = i + 1; j < n; ++j) {
        if (rng.uniform() < edge_prob) graph.set_rate(i, j, draw_rate());
      }
    }
  }
  return graph;
}

TEST(Property, PathTablesMatchReferenceOnTiedWeights) {
  // Where labels tie, the settle order alone decides which parent a node
  // keeps: a node adopts the first settled neighbour that offers its best
  // weight. The kernel's indexed heap must pop tied nodes by ascending id,
  // as the reference's lazy heap does, and move an improved node up at
  // once. Graphs with one or two rate values tie everywhere, and a third
  // of the horizons saturate every weight to exactly 1.0.
  TierEvals kernel_evals{};
  run_property("path_tables_tied_weights", 40, [&](Rng& rng, int) {
    const ContactGraph graph = tied_weight_graph(rng);
    const NodeId n = graph.node_count();
    double min_rate = 1.0;
    for (NodeId u = 0; u < n; ++u) {
      for (const auto& nb : graph.neighbors(u)) {
        min_rate = std::min(min_rate, nb.rate);
      }
    }
    // 1 - e^{-x T} rounds to exactly 1.0 once x T > 37, and so does the
    // weight of a chain of a few such stages well before x T = 200.
    const Time horizon = rng.uniform() < 1.0 / 3.0
                             ? rng.uniform(40.0, 200.0) / min_rate
                             : rng.uniform(0.05, 3.0) / min_rate;
    for (int max_hops = 1; max_hops <= 8; ++max_hops) {
      expect_tables_match_reference(graph, horizon, max_hops, kernel_evals);
    }
    expect_tables_match_reference(
        graph, horizon, n + static_cast<int>(rng.uniform_int(0, 3)),
        kernel_evals);
  });
  if (instrument::enabled()) {
    for (std::size_t i = 0; i < kHypoexpTiers.size(); ++i) {
      EXPECT_GT(kernel_evals[i], 0u) << kHypoexpTiers[i] << " never reached";
    }
  }
}

// ---- subtree-local repair ---------------------------------------------

/// The graph families the local re-settle is checked on, with the rates
/// an edge may be slowed or sped up to.
enum class RateFamily { kTwoRates, kPooled, kContinuous };

/// A random graph of one family, the horizon its tables are built at and
/// its distinct edge rates. Two-rate graphs at long horizons saturate
/// weights to 1.0, where only the strict-chain check keeps the replay
/// order right; pooled and two-rate graphs tie labels, where the merge's
/// id tie-break decides parents. Continuous rates stay at 600 s: longer
/// horizons trip a known relaxation-check abort of the full kernel on such
/// graphs (ROADMAP item 10).
struct ResettleGraph {
  RateFamily family = RateFamily::kContinuous;
  ContactGraph graph;
  Time horizon = 600.0;
  std::vector<double> pool;
};

ResettleGraph resettle_graph(Rng& rng) {
  ResettleGraph g;
  g.family = static_cast<RateFamily>(rng.uniform_int(0, 2));
  if (g.family == RateFamily::kTwoRates) {
    g.graph = tied_weight_graph(rng);
    g.horizon = rng.uniform(600.0, 2e5);
  } else if (g.family == RateFamily::kPooled) {
    g.graph = pooled_rate_graph(rng);
    g.horizon = rng.uniform() < 0.5 ? 600.0 : 3600.0;
  } else {
    g.graph = random_contact_graph(rng);
  }
  for (NodeId u = 0; u < g.graph.node_count(); ++u) {
    for (const auto& nb : g.graph.neighbors(u)) g.pool.push_back(nb.rate);
  }
  std::sort(g.pool.begin(), g.pool.end());
  g.pool.erase(std::unique(g.pool.begin(), g.pool.end()), g.pool.end());
  return g;
}

/// The hop caps each root is checked at: 1-8, then one at least n.
int resettle_cap(Rng& rng, int cap, NodeId n) {
  return cap <= 8 ? cap : n + static_cast<int>(rng.uniform_int(0, 3));
}

/// The non-root nodes `table` reaches.
std::vector<NodeId> reached_nodes(const PathTable& table) {
  std::vector<NodeId> reached;
  for (NodeId v = 0; v < table.node_count(); ++v) {
    if (v != table.root() && table.reachable(v)) reached.push_back(v);
  }
  return reached;
}

template <typename T>
T pick(Rng& rng, const std::vector<T>& values) {
  return values[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(values.size()) - 1))];
}

/// A slower rate for an edge of `rate`, or 0 to remove the edge: another
/// value of the graph's own rates when the family is pooled, so ties stay
/// exact, and a random fraction of the rate when it is continuous.
double slowed_rate(Rng& rng, RateFamily family, double rate,
                   const std::vector<double>& pool) {
  if (rng.uniform() < 0.25) return 0.0;
  if (family == RateFamily::kContinuous) return rate * rng.uniform(0.05, 0.95);
  std::vector<double> slower;
  for (const double r : pool) {
    if (r < rate) slower.push_back(r);
  }
  if (slower.empty()) return 0.0;
  return pick(rng, slower);
}

/// A faster rate for an edge of `rate`, or a rate for a new edge when
/// `rate` is 0: a larger value of the graph's own rates unless the family
/// is continuous (0 when there is none), and a random multiple of the
/// rate, or a fresh one, when it is.
double faster_rate(Rng& rng, RateFamily family, double rate,
                   const std::vector<double>& pool) {
  if (family == RateFamily::kContinuous) {
    return rate > 0.0 ? rate * rng.uniform(1.1, 4.0)
                      : std::exp(rng.uniform(std::log(1e-5), std::log(1e-2)));
  }
  std::vector<double> faster;
  for (const double r : pool) {
    if (r > rate) faster.push_back(r);
  }
  return faster.empty() ? 0.0 : pick(rng, faster);
}

/// Asserts that `got` is the reference's table for its root on `graph` at
/// `max_hops`, field for field.
void expect_reference_table(const PathTable& got, const ContactGraph& graph,
                            int max_hops) {
  const PathTable want = compute_opportunistic_paths_reference(
      graph, got.root(), got.horizon(), max_hops);
  for (NodeId node = 0; node < graph.node_count(); ++node) {
    const PathTable::Entry& g = got.entry(node);
    const PathTable::Entry& w = want.entry(node);
    ASSERT_EQ(bits(g.weight), bits(w.weight))
        << "root " << got.root() << " node " << node << " cap " << max_hops;
    ASSERT_EQ(bits(g.last_rate), bits(w.last_rate))
        << "root " << got.root() << " node " << node << " cap " << max_hops;
    ASSERT_EQ(g.next_hop, w.next_hop)
        << "root " << got.root() << " node " << node << " cap " << max_hops;
    ASSERT_EQ(g.hops, w.hops)
        << "root " << got.root() << " node " << node << " cap " << max_hops;
  }
}

/// A batch of edge changes on the graph `old` was built on: 1-3 of its
/// tree edges and up to two of its other edges, each slowed or removed
/// or, with `speedups`, as likely sped up, plus with `speedups` up to two
/// new edges.
struct ResettleBatch {
  struct FasterEdge {
    NodeId u;
    NodeId v;
    double rate;
  };
  ContactGraph graph;  ///< the graph after the batch
  std::vector<std::pair<NodeId, NodeId>> changed;
  std::vector<FasterEdge> faster_off_tree;  ///< sped up or new, off-tree
  bool tree_faster = false;                 ///< a tree edge sped up
};

ResettleBatch draw_batch(Rng& rng, const ResettleGraph& g,
                         const PathTable& old,
                         const std::vector<NodeId>& reached, bool speedups) {
  const NodeId n = g.graph.node_count();
  ResettleBatch batch{g.graph, {}, {}, false};
  const auto change = [&](NodeId u, NodeId v, bool faster) {
    for (const auto& [a, b] : batch.changed) {
      if ((a == u && b == v) || (a == v && b == u)) return;
    }
    const double rate = batch.graph.rate(u, v);
    double next = faster ? faster_rate(rng, g.family, rate, g.pool) : 0.0;
    if (!(next > rate)) next = slowed_rate(rng, g.family, rate, g.pool);
    if (next > 0.0) {
      batch.graph.set_rate(u, v, next);
    } else {
      batch.graph.remove_edge(u, v);
    }
    batch.changed.emplace_back(u, v);
    if (!(next > rate)) return;
    if (old.tree_child(u, v) != kNoNode) {
      batch.tree_faster = true;
    } else {
      batch.faster_off_tree.push_back({u, v, next});
    }
  };
  const int tree_edges = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < tree_edges; ++i) {
    const NodeId x = pick(rng, reached);
    change(x, old.entry(x).next_hop, speedups && rng.bernoulli(0.5));
  }
  const int other_edges = static_cast<int>(rng.uniform_int(0, 2));
  for (int i = 0; i < other_edges; ++i) {
    const NodeId u = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const auto& neighbors = g.graph.neighbors(u);
    if (neighbors.empty()) continue;
    const NodeId v = pick(rng, neighbors).node;
    if (old.tree_child(u, v) == kNoNode) {
      change(u, v, speedups && rng.bernoulli(0.5));
    }
  }
  const int new_edges = speedups ? static_cast<int>(rng.uniform_int(0, 2)) : 0;
  for (int i = 0; i < new_edges; ++i) {
    const NodeId u = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const NodeId v = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    if (u != v && !(g.graph.rate(u, v) > 0.0)) change(u, v, true);
  }
  return batch;
}

TEST(Property, SubtreeResettleMatchesReferenceOrDeclines) {
  // resettle_subtrees keeps every entry outside the subtrees under the
  // changed tree edges and re-settles those subtrees, grown by the kept
  // subtrees their offers reach. On every root of random graphs, after
  // 1-3 of its tree edges and up to two other edges were slowed or
  // removed, it must either decline or return the reference's table on
  // the new graph, field for field, and some of those tables must have
  // grown.
  std::uint64_t local = 0;
  std::uint64_t declined = 0;
  std::uint64_t local_grown = 0;
  run_property("subtree_resettle", 120, [&](Rng& rng, int) {
    const ResettleGraph g = resettle_graph(rng);
    const NodeId n = g.graph.node_count();
    for (int cap = 1; cap <= 9; ++cap) {
      const int max_hops = resettle_cap(rng, cap, n);
      for (NodeId root = 0; root < n; ++root) {
        const PathTable old =
            compute_opportunistic_paths(g.graph, root, g.horizon, max_hops);
        const std::vector<NodeId> reached = reached_nodes(old);
        if (reached.empty()) continue;
        const ResettleBatch batch = draw_batch(rng, g, old, reached, false);
        const std::optional<ResettledTable> got = resettle_subtrees(
            batch.graph, old, max_hops, batch.changed, {},
            thread_path_workspace(),
            build_edge_exp_table(batch.graph, g.horizon));
        if (!got) {
          ++declined;
          continue;
        }
        ++local;
        if (got->grown > 0) ++local_grown;
        ASSERT_NO_FATAL_FAILURE(
            expect_reference_table(got->table, batch.graph, max_hops));
      }
    }
  });
  EXPECT_GT(local, 0u);
  EXPECT_GT(declined, 0u);
  EXPECT_GT(local_grown, 0u);
}

/// What the seeded re-settle cases saw.
struct SeededResettleCounts {
  std::uint64_t local = 0;
  std::uint64_t declined = 0;
  std::uint64_t local_tree_faster = 0;  ///< re-settled a faster tree edge
  std::uint64_t local_adopted = 0;      ///< re-settled a fired adoption
  std::uint64_t local_grown = 0;        ///< grew D over a kept subtree
};

/// One case of the seeded re-settle property: a graph drawn from `rng`,
/// and on every root and hop cap a batch of slowed, removed, faster and
/// new edges with seeds drawn by dtnd's rule or at random. Every table
/// resettle_subtrees does not decline must be the reference's.
void seeded_resettle_case(Rng& rng, SeededResettleCounts& counts) {
  const ResettleGraph g = resettle_graph(rng);
  const NodeId n = g.graph.node_count();
  for (int cap = 1; cap <= 9; ++cap) {
    const int max_hops = resettle_cap(rng, cap, n);
    for (NodeId root = 0; root < n; ++root) {
      const PathTable old =
          compute_opportunistic_paths(g.graph, root, g.horizon, max_hops);
      const std::vector<NodeId> reached = reached_nodes(old);
      if (reached.empty()) continue;
      const ResettleBatch batch = draw_batch(rng, g, old, reached, true);

      std::vector<NodeId> seeds;
      const bool by_rule = rng.bernoulli(0.5);
      if (by_rule) {
        PathWorkspace& ws = thread_path_workspace();
        for (const ResettleBatch::FasterEdge& e : batch.faster_off_tree) {
          if (adoption_fires(old, e.u, e.v, e.rate, max_hops, ws)) {
            seeds.push_back(e.v);
          }
          if (adoption_fires(old, e.v, e.u, e.rate, max_hops, ws)) {
            seeds.push_back(e.u);
          }
        }
      } else {
        const int count = static_cast<int>(rng.uniform_int(0, 3));
        for (int i = 0; i < count; ++i) {
          NodeId seed = static_cast<NodeId>(rng.uniform_int(0, n - 2));
          if (seed >= root) ++seed;
          seeds.push_back(seed);
        }
      }

      const std::optional<ResettledTable> got = resettle_subtrees(
          batch.graph, old, max_hops, batch.changed, seeds,
          thread_path_workspace(),
          build_edge_exp_table(batch.graph, g.horizon));
      if (!got) {
        ++counts.declined;
        continue;
      }
      ++counts.local;
      if (batch.tree_faster) ++counts.local_tree_faster;
      if (by_rule && !seeds.empty()) ++counts.local_adopted;
      if (got->grown > 0) ++counts.local_grown;
      ASSERT_NO_FATAL_FAILURE(
          expect_reference_table(got->table, batch.graph, max_hops));
    }
  }
}

TEST(Property, SeededResettleMatchesReferenceOrDeclines) {
  // The argument behind resettle_subtrees never uses the direction of a
  // change: for any D that holds the changed tree edges' child ends and
  // every node below a node of D, a table its checks pass is the
  // kernel's. Batches here mix slowed, removed, faster and new edges, tree
  // edges among them, and D is seeded by dtnd's rule (the end of each
  // faster off-tree edge whose adoption test fires) or with random
  // non-root nodes. Every table that does not decline must be the
  // reference's on the new graph, field for field, grown ones among them.
  SeededResettleCounts counts;
  run_property("seeded_resettle", 120, [&](Rng& rng, int) {
    seeded_resettle_case(rng, counts);
  });
  EXPECT_GT(counts.local, 0u);
  EXPECT_GT(counts.declined, 0u);
  EXPECT_GT(counts.local_tree_faster, 0u);
  EXPECT_GT(counts.local_adopted, 0u);
  EXPECT_GT(counts.local_grown, 0u);
}

TEST(Property, SeededResettleCaseWithGrowthAfterOutOfOrderPops) {
  // Base seed 4's case 9 of the property above. On some of its roots the
  // pops leave the (weight desc, id asc) order before an offer reaches a
  // kept node, the root among the nodes so offered. A growth there would
  // replay past offers out of pop order and return a table that is not
  // the reference's, so resettle_subtrees must decline it.
  SeededResettleCounts counts;
  Rng rng(14647597899418332194ULL);
  seeded_resettle_case(rng, counts);
  EXPECT_GT(counts.declined, 0u);
}

// ---- malformed untrusted input -----------------------------------------

/// Bytes and tokens the mutator splices in: the separators and number
/// shapes the shared text grammar (common/scan.h) decides on, and node ids
/// outside the 6-node sample trace.
const std::string kMutantBytes =
    std::string("0123456789,.-+eEx #\t\r\n\xff") + '\0';
const char* const kMutantTokens[] = {
    "0x10", "40abc", "+1", "-1", "nan", "inf", "1e5", "3.5", "99",
    "2147483647", "9223372036854775808", "", "up", "down", "CONN", "junk",
    "#"};

/// Applies one to four random edits to `bytes`: byte flips, splices,
/// erasures and truncations, token replacements (the most likely edit) and
/// duplicated lines.
std::string mutate(std::string bytes, Rng& rng) {
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const int edits = static_cast<int>(rng.uniform_int(1, 4));
  for (int k = 0; k < edits; ++k) {
    if (bytes.empty()) bytes.push_back('0');
    const std::size_t at = pick(bytes.size());
    switch (rng.uniform_int(0, 8)) {
      case 0:
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << pick(8)));
        break;
      case 1:
        bytes[at] = kMutantBytes[pick(kMutantBytes.size())];
        break;
      case 2:
        bytes.insert(at, 1, kMutantBytes[pick(kMutantBytes.size())]);
        break;
      case 3:
        bytes.erase(at, pick(8) + 1);
        break;
      case 4:
        bytes.resize(at);
        break;
      case 5:
      case 6:
      case 7: {  // replace a token, each equally likely
        const char* const separators = " \t,\r\n";
        std::vector<std::pair<std::size_t, std::size_t>> tokens;
        std::size_t first = bytes.find_first_not_of(separators);
        while (first != std::string::npos) {
          const std::size_t last =
              std::min(bytes.find_first_of(separators, first), bytes.size());
          tokens.emplace_back(first, last);
          first = bytes.find_first_not_of(separators, last);
        }
        if (tokens.empty()) break;
        const auto [from, to] = tokens[pick(tokens.size())];
        bytes.replace(from, to - from,
                      kMutantTokens[pick(std::size(kMutantTokens))]);
        break;
      }
      default: {  // duplicate the line around `at`
        const std::size_t before = bytes.rfind('\n', at);
        const std::size_t first = before == std::string::npos ? 0 : before;
        const std::size_t after = bytes.find('\n', at);
        const std::size_t last =
            after == std::string::npos ? bytes.size() : after;
        bytes.insert(first, bytes.substr(first, last - first));
        break;
      }
    }
  }
  return bytes;
}

/// ContactTrace's invariants, plus finite times.
void expect_valid_trace(const ContactTrace& trace) {
  ASSERT_GE(trace.node_count(), 0);
  const std::vector<ContactEvent>& events = trace.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ContactEvent& e = events[i];
    ASSERT_TRUE(0 <= e.a && e.a < e.b && e.b < trace.node_count()) << i;
    ASSERT_TRUE(std::isfinite(e.start) && std::isfinite(e.duration)) << i;
    ASSERT_GE(e.duration, 0.0) << i;
    if (i > 0) {
      ASSERT_FALSE(ContactEventOrder{}(e, events[i - 1])) << i;
    }
  }
}

/// Replays `script` against a daemon warm-started from the first half of
/// `trace`, with the second half as its feed.
void run_daemon_script(const ContactTrace& trace, const std::string& script) {
  const auto split = trace.events().begin() +
                     static_cast<std::ptrdiff_t>(trace.size() / 2);
  daemon::DaemonConfig config;
  config.threads = 1;
  daemon::Daemon d(trace.node_count(), config);
  d.warm_start(ContactTrace(
      trace.node_count(),
      std::vector<ContactEvent>(trace.events().begin(), split), "warm"));
  const std::vector<ContactEvent> live(split, trace.events().end());
  daemon::ReplayFeed feed(live);
  std::ostringstream out;
  daemon::run_script(d, feed, script, out);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(Property, MalformedInputsFailWithLocation) {
  const std::string fixtures = DTN_TRACE_FIXTURE_DIR;
  const ContactTrace sample = traceio::load_trace_any(fixtures + "/sample.csv");
  const struct {
    const char* format;  // a reader's format name or "script"
    std::string seed;
  } targets[] = {
      {"csv", slurp(fixtures + "/sample.csv")},
      {"one", slurp(fixtures + "/sample_one.txt")},
      {"imote", slurp(fixtures + "/sample_imote.txt")},
      {"script",
       "# query mix over the 6-node sample trace\n"
       "ncl 2\nadvance 900\nrepair\nweight 0 5 1800\nplace 2 3\n"
       "drain\nrepair\nncl 3\nweight 1 4 600\nstats\n"},
  };
  constexpr std::size_t kTargets = std::size(targets);
  std::size_t loaded[kTargets] = {};
  std::size_t rejected[kTargets] = {};
  std::size_t node_out_of_range = 0;

  run_property("malformed_inputs", 2500, [&](Rng& rng, int i) {
    const std::size_t t = static_cast<std::size_t>(i) % kTargets;
    const std::string format = targets[t].format;
    const std::string input = mutate(targets[t].seed, rng);
    const std::string source = "mutant." + format;
    SCOPED_TRACE(::testing::Message()
                 << source << ": " << ::testing::PrintToString(input));
    try {
      if (format == "script") {
        run_daemon_script(sample, input);
      } else {
        traceio::TraceReadOptions options;
        options.strict = rng.bernoulli(0.5);
        expect_valid_trace(traceio::reader_for_format(format)->read(
            input, "mutant", source, options));
      }
      ++loaded[t];
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      const std::string where =
          format == "script" ? "script line " : source + ":";
      EXPECT_EQ(what.rfind(where, 0), 0u) << what;
      if (what.find("outside [0, 6)") != std::string::npos) {
        ++node_out_of_range;
      }
      ++rejected[t];
    } catch (const std::exception& error) {
      ADD_FAILURE() << "not a std::runtime_error: " << error.what();
    }
  });
  // Every seed both survives some mutants and loses to others, and some
  // script mutants name a node the daemon does not have.
  for (std::size_t t = 0; t < kTargets; ++t) {
    EXPECT_GT(loaded[t], 0u) << targets[t].format;
    EXPECT_GT(rejected[t], 0u) << targets[t].format;
  }
  EXPECT_GT(node_out_of_range, 0u);
}

}  // namespace
}  // namespace dtn
