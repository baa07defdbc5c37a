// Property-based invariant suite (tests/proptest.h harness).
//
// Randomized op sequences and inputs against the hot-loop data structures
// the SoA/arena rewrite introduced, each checked against either a simple
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
//  * SlabPool vs a map model — handle stability, value round-trip, live
//    accounting across arbitrary acquire/release interleavings;
//  * the fast simulator engine vs the reference engine on randomized
//    mini-traces and experiment configs — bit-identical metrics (the
//    randomized counterpart of tests/engine_golden_test.cpp's pinned
//    matrix);
//  * opportunistic path tables on random rate graphs — weights are
//    monotone non-increasing along every parent chain (the greedy
//    max-probability construction depends on it);
//  * seeded byte-, token- and line-level mutants of every untrusted input
//    (the trace fixtures, a .dtntrace file, a dtnd script) either load a
//    valid trace or fail with a std::runtime_error naming their source.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cache/knapsack.h"
#include "cache/replacement.h"
#include "common/arena.h"
#include "common/rng.h"
#include "common/types.h"
#include "daemon/daemon.h"
#include "daemon/script.h"
#include "experiment/experiment.h"
#include "graph/opportunistic_path.h"
#include "net/buffer.h"
#include "tests/proptest.h"
#include "trace/synthetic.h"
#include "traceio/binary.h"
#include "traceio/cache.h"
#include "traceio/reader.h"

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
// data ids with randomized sizes, popularities and holders, plus a full
// randomized exchange configuration.
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
    item.popularity = rng.uniform();
    item.at_a = rng.bernoulli(0.5);
    pool_bytes += item.size;
    c.pool.push_back(item);
  }
  rng.shuffle(c.pool);
  c.capacity_a = rng.uniform_int(0, std::max<Bytes>(1, pool_bytes));
  c.capacity_b = rng.uniform_int(0, std::max<Bytes>(1, pool_bytes));
  c.weight_a = rng.uniform();
  c.weight_b = rng.uniform();
  c.config.knapsack_unit = 1 << static_cast<int>(rng.uniform_int(17, 21));
  c.config.max_rounds = static_cast<int>(rng.uniform_int(1, 5));
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

TEST(Property, SlabPoolMatchesMapModel) {
  run_property("slab_pool_model", 40, [](Rng& rng, int) {
    using Pool = SlabPool<std::int64_t>;
    Pool pool(/*slab_capacity=*/4);  // small slabs: multi-slab from op ~5 on
    std::map<Pool::Handle, std::int64_t> model;
    std::int64_t next_value = 1;

    const int ops = static_cast<int>(rng.uniform_int(50, 400));
    for (int op = 0; op < ops; ++op) {
      const double dice = rng.uniform();
      if (dice < 0.5 || model.empty()) {
        const Pool::Handle h = pool.acquire();
        ASSERT_TRUE(model.find(h) == model.end())
            << "acquire returned a handle that is already live";
        pool.get(h) = next_value;
        model.emplace(h, next_value);
        ++next_value;
      } else if (dice < 0.8) {
        auto it = model.begin();
        std::advance(it, rng.uniform_int(
                             0, static_cast<std::int64_t>(model.size()) - 1));
        pool.release(it->first);
        model.erase(it);
      } else {
        // Values survive unrelated acquires/releases: slab addresses and
        // slot contents are stable while a handle stays live.
        auto it = model.begin();
        std::advance(it, rng.uniform_int(
                             0, static_cast<std::int64_t>(model.size()) - 1));
        ASSERT_EQ(pool.get(it->first), it->second);
      }
      ASSERT_EQ(pool.live(), model.size());
      ASSERT_GE(pool.capacity(), pool.live());
    }
    for (const auto& [h, value] : model) ASSERT_EQ(pool.get(h), value);
  });
}

TEST(Property, FastEngineMatchesReferenceOnRandomMiniTraces) {
  // The randomized counterpart of engine_golden_test's pinned matrix:
  // small random traces and experiment configs, fast vs reference engines,
  // raw-double equality on every aggregate metric. Case count is modest
  // because each case runs two full simulations.
  run_property("engine_equivalence", 6, [](Rng& rng, int) {
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
    config.avg_lifetime = hours(rng.uniform(6.0, 24.0));
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
  });
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

/// Applies one to four random edits to `bytes`. Text inputs also get
/// token replacements (the most likely edit) and duplicated lines.
std::string mutate(std::string bytes, Rng& rng, bool text) {
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const int edits = static_cast<int>(rng.uniform_int(1, 4));
  for (int k = 0; k < edits; ++k) {
    if (bytes.empty()) bytes.push_back('0');
    const std::size_t at = pick(bytes.size());
    switch (rng.uniform_int(0, text ? 8 : 4)) {
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

/// Recomputes a mutated .dtntrace file's payload checksum, so that the
/// record checks rather than the checksum meet the mutation.
void reseal(std::string& bytes) {
  constexpr std::size_t kHeader = 76;
  if (bytes.size() < kHeader) return;
  std::size_t name_length = 0;
  for (int i = 3; i >= 0; --i) {
    name_length = name_length << 8 | static_cast<unsigned char>(bytes[72 + i]);
  }
  if (name_length > bytes.size() - kHeader) return;
  const std::size_t payload = kHeader + name_length;
  const std::uint64_t checksum =
      traceio::fnv1a(bytes.data() + payload, bytes.size() - payload);
  for (int i = 0; i < 8; ++i) {
    bytes[64 + i] = static_cast<char>((checksum >> (8 * i)) & 0xffu);
  }
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
  std::ostringstream binary;
  traceio::write_trace_binary(sample, binary);
  const struct {
    const char* format;  // a reader's format name, "binary" or "script"
    std::string seed;
  } targets[] = {
      {"csv", slurp(fixtures + "/sample.csv")},
      {"one", slurp(fixtures + "/sample_one.txt")},
      {"imote", slurp(fixtures + "/sample_imote.txt")},
      {"binary", binary.str()},
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
    std::string input = mutate(targets[t].seed, rng, format != "binary");
    if (format == "binary" && rng.bernoulli(0.5)) reseal(input);
    const std::string source = "mutant." + format;
    SCOPED_TRACE(::testing::Message()
                 << source << ": " << ::testing::PrintToString(input));
    try {
      if (format == "script") {
        run_daemon_script(sample, input);
      } else if (format == "binary") {
        expect_valid_trace(traceio::read_trace_binary(input, source));
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
