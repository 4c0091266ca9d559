#include "workloads.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "apps/histogram.hpp"
#include "apps/radix_sort.hpp"
#include "stats.hpp"
#include "svm/op_traits.hpp"
#include "svm/permute_ops.hpp"
#include "svm/scan.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kHistogramBins = 64;
constexpr unsigned kTenants = 3;

struct KindWeight {
  Kind kind;
  unsigned weight;  ///< percent
};

// serve_small: ~80% coalescible, ~20% individual-path kinds.
constexpr KindWeight kSmallMix[] = {
    {Kind::kScan, 30},     {Kind::kScanExclusive, 15}, {Kind::kReduce, 20},
    {Kind::kCompress, 15}, {Kind::kHistogram, 10},     {Kind::kSort, 10},
};
// serve_large: the kinds with a whole-pool path, plus compress (which runs
// individually at any size).
// Sort is ~25x a scan's cost at these sizes, so it stays a small share.
constexpr KindWeight kLargeMix[] = {
    {Kind::kScan, 25},     {Kind::kScanExclusive, 25}, {Kind::kReduce, 25},
    {Kind::kCompress, 20}, {Kind::kSort, 5},
};

std::span<const KindWeight> mix(const ServeSpec& spec) {
  return spec.large ? std::span<const KindWeight>(kLargeMix)
                    : std::span<const KindWeight>(kSmallMix);
}

/// Payload sizes: serve_small [1, 64]; serve_large [T, 16T).  Drawn
/// stratified — `count` sizes, one from each of `count` equal slices of the
/// range, shuffled — so a kind's size mix barely moves with the seed.
std::vector<std::size_t> draw_sizes(const ServeSpec& spec, std::size_t count, Rng& rng) {
  const std::size_t lo = spec.large ? kCoalesceThreshold : 1;
  const std::size_t span = spec.large ? 15 * kCoalesceThreshold : 64;
  std::vector<std::size_t> sizes;
  for (std::size_t j = 0; j < count; ++j) {
    const double at = (static_cast<double>(j) + unit(rng)) / static_cast<double>(count);
    sizes.push_back(lo + static_cast<std::size_t>(at * static_cast<double>(span)));
  }
  for (std::size_t i = sizes.size(); i > 1; --i) std::swap(sizes[i - 1], sizes[rng.below(i)]);
  return sizes;
}

Request make_request(Kind kind, std::size_t n, unsigned tenant, Rng& rng) {
  Request req;
  req.tenant = tenant;
  req.kind = kind;
  req.data.resize(n);
  for (Value& v : req.data) v = static_cast<Value>(rng.next() & 0xFFFFu);
  if (kind == Kind::kCompress) {
    req.flags.resize(n);
    for (Value& f : req.flags) f = static_cast<Value>(rng.next() & 1u);
  }
  if (kind == Kind::kHistogram) {
    req.bins = kHistogramBins;
    for (Value& v : req.data) v %= static_cast<Value>(kHistogramBins);
  }
  return req;
}

void add(RequestPool& pool, Request req) {
  pool.expected.push_back(reference(req));
  pool.requests.push_back(std::move(req));
}

}  // namespace

const ServeSpec& serve_spec(const std::string& workload) {
  // Rates and limits are fixed per workload.  serve_small's reference rate
  // is about a tenth of its capacity at 2 harts: most requests find the
  // service idle, so p50 is the handoff chain plus the request's own work
  // (at a third of capacity, p50 is mostly wave batching, which swings with
  // host speed).  serve_large's is about a quarter of its burst capacity.
  // The ladder and its SLO serve the traced run's client.max_rps_at_slo.
  static const ServeSpec kSmall{
      .name = "serve_small",
      .large = false,
      .distinct_requests = 1000,
      .ref_rate = 4000.0,
      .ref_share = 0.3,
      .slo_ms = 20.0,
      .ladder = geometric_ladder(2500.0, 1.05, 80),
  };
  static const ServeSpec kLarge{
      .name = "serve_large",
      .large = true,
      .distinct_requests = 600,
      .ref_rate = 500.0,
      .ref_share = 0.3,
      .slo_ms = 100.0,
      .ladder = geometric_ladder(150.0, 1.05, 80),
  };
  if (workload == kSmall.name) return kSmall;
  if (workload == kLarge.name) return kLarge;
  throw std::invalid_argument("not a serve workload: " + workload);
}

RequestPool make_pool(const ServeSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  const auto kinds = mix(spec);
  std::vector<Kind> order;
  std::vector<std::vector<std::size_t>> sizes(rvvsvm::serve::kNumRequestKinds);
  for (const KindWeight& kw : kinds) {
    const std::size_t count = spec.distinct_requests * kw.weight / 100;
    order.insert(order.end(), count, kw.kind);
    sizes[static_cast<std::size_t>(kw.kind)] = draw_sizes(spec, count, rng);
  }
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  RequestPool pool;
  for (const Kind kind : order) {
    std::vector<std::size_t>& left = sizes[static_cast<std::size_t>(kind)];
    const std::size_t n = left.back();
    left.pop_back();
    add(pool, make_request(kind, n, 1 + static_cast<unsigned>(rng.below(kTenants)), rng));
  }
  return pool;
}

RequestPool warm_set(const ServeSpec& spec) {
  std::vector<std::size_t> sizes;
  if (spec.large) {
    // Every whole-request bucket, and one full shard followed by a remainder
    // in every per-shard bucket (ScanService's default 4096-element shards).
    const std::size_t t = kCoalesceThreshold;
    for (std::size_t n = t; n < 4096; n *= 2) sizes.push_back(n);
    for (std::size_t r = 1; r < 4096; r *= 2) sizes.push_back(4096 + r);
    sizes.push_back(16 * t - 1);
  } else {
    for (std::size_t n = 1; n <= 64; n *= 2) sizes.push_back(n);
  }
  Rng rng(0x5EEDu);
  RequestPool pool;
  for (const KindWeight& kw : mix(spec)) {
    for (const std::size_t n : sizes) add(pool, make_request(kw.kind, n, 1, rng));
  }
  return pool;
}

Expected reference(const Request& req) {
  Expected e;
  switch (req.kind) {
    case Kind::kScan: {
      Value acc = 0;
      for (const Value v : req.data) e.data.push_back(acc += v);
      break;
    }
    case Kind::kScanExclusive: {
      Value acc = 0;
      for (const Value v : req.data) {
        e.data.push_back(acc);
        acc += v;
      }
      break;
    }
    case Kind::kReduce:
      for (const Value v : req.data) e.scalar += v;
      break;
    case Kind::kCompress:
      for (std::size_t i = 0; i < req.data.size(); ++i) {
        if (req.flags[i] != 0) e.data.push_back(req.data[i]);
      }
      break;
    case Kind::kHistogram:
      e.data.assign(req.bins, Value{0});
      for (const Value v : req.data) ++e.data[v];
      break;
    case Kind::kSort:
      e.data = req.data;
      std::sort(e.data.begin(), e.data.end());
      break;
  }
  return e;
}

std::string check_response(const Request& req, const Expected& want, const Response& resp) {
  if (!resp.ok()) return "error " + std::to_string(static_cast<int>(resp.error)) + ": " + resp.message;
  if (req.kind == Kind::kReduce) {
    if (resp.scalar != want.scalar) return "reduce result differs from the host reference";
  } else if (resp.data != want.data) {
    return std::string(rvvsvm::serve::to_string(req.kind)) + " output differs from the host reference";
  }
  if (req.kind == Kind::kCompress && resp.out_size != want.data.size()) {
    return "compress out_size differs from the kept count";
  }
  if (resp.billed_total != resp.bill.total()) return "billed_total differs from bill.total()";
  return {};
}

Expected run_direct(const Request& r) {
  Expected e;
  switch (r.kind) {
    case Kind::kScan:
      e.data = r.data;
      rvvsvm::svm::plus_scan<Value>(std::span<Value>(e.data));
      break;
    case Kind::kScanExclusive:
      e.data = r.data;
      rvvsvm::svm::plus_scan_exclusive<Value>(std::span<Value>(e.data));
      break;
    case Kind::kReduce:
      e.scalar = rvvsvm::svm::reduce<rvvsvm::svm::PlusOp, Value>(std::span<const Value>(r.data));
      break;
    case Kind::kCompress: {
      e.data.assign(r.data.size(), Value{0});
      const std::size_t kept = rvvsvm::svm::pack<Value>(
          std::span<const Value>(r.data), std::span<Value>(e.data), std::span<const Value>(r.flags));
      e.data.resize(kept);
      break;
    }
    case Kind::kHistogram:
      e.data.assign(r.bins, Value{0});
      rvvsvm::apps::histogram<Value>(std::span<const Value>(r.data), std::span<Value>(e.data));
      break;
    case Kind::kSort:
      e.data = r.data;
      rvvsvm::apps::split_radix_sort<Value>(std::span<Value>(e.data));
      break;
  }
  return e;
}

}  // namespace perfbench
