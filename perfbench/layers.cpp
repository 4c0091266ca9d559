// Traced-run measurements that call one layer's public API directly, from
// the benchmark, on the workload's payloads or on the paper's inputs.
#include <algorithm>
#include <array>
#include <span>

#include "bench.hpp"
#include "par/collectives.hpp"
#include "par/hart_pool.hpp"
#include "rvv/machine.hpp"
#include "stats.hpp"
#include "svm/permute_ops.hpp"
#include "svm/scan.hpp"
#include "svm/segmented.hpp"
#include "apps/radix_sort.hpp"
#include "tables/workloads.hpp"
#include "tune/autotuner.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace par = rvvsvm::par;
namespace rvv = rvvsvm::rvv;
namespace svm = rvvsvm::svm;
namespace tune = rvvsvm::tune;

constexpr unsigned kVlen = 256;

[[nodiscard]] double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

[[nodiscard]] par::HartPool::Config pool_config(unsigned harts) {
  par::HartPool::Config cfg;
  cfg.harts = harts;
  cfg.machine.vlen_bits = kVlen;
  return cfg;
}

/// Kinds the service runs as whole-pool par:: collectives.
[[nodiscard]] bool has_collective(Kind kind) {
  return kind == Kind::kScan || kind == Kind::kScanExclusive || kind == Kind::kReduce ||
         kind == Kind::kSort;
}

/// Runs a request through its whole-pool par:: collective.
Expected run_collective(par::HartPool& pool, const Request& r) {
  Expected got;
  switch (r.kind) {
    case Kind::kScan:
      got.data = r.data;
      par::plus_scan<Value>(pool, std::span<Value>(got.data));
      break;
    case Kind::kScanExclusive:
      got.data = r.data;
      par::plus_scan_exclusive<Value>(pool, std::span<Value>(got.data));
      break;
    case Kind::kReduce:
      got.scalar = par::reduce<svm::PlusOp, Value>(pool, std::span<const Value>(r.data));
      break;
    case Kind::kSort:
      got.data = r.data;
      par::split_radix_sort<Value>(pool, std::span<Value>(got.data));
      break;
    case Kind::kCompress:
    case Kind::kHistogram:
      break;
  }
  return got;
}

[[nodiscard]] bool same(const Request& r, const Expected& a, const Expected& b) {
  return r.kind == Kind::kReduce ? a.scalar == b.scalar : a.data == b.data;
}

}  // namespace

void measure_par_epoch(Outcome& out, Tracer& tracer) {
  const Tracer::Scope span(&tracer, "par.epoch");
  par::HartPool pool(pool_config(2));
  const auto body = [](std::size_t) {};
  for (int i = 0; i < 200; ++i) pool.for_shards(2, body);
  std::vector<double> us;
  for (int i = 0; i < 4000; ++i) {
    const auto t0 = Clock::now();
    pool.for_shards(2, body);
    us.push_back(us_since(t0));
  }
  out.add("par.epoch_us", median(us), "us");
}

std::uint64_t measure_collectives(const RequestPool& pool, Outcome& out, Tracer& tracer) {
  const Tracer::Scope span(&tracer, "par.collectives");
  std::array<double, 2> total_ms{};
  std::vector<double> ms_two;
  std::uint64_t abandoned = 0;
  for (const unsigned harts : {1u, 2u}) {
    par::HartPool hp(pool_config(harts));
    for (int pass = 0; pass < 2; ++pass) {  // pass 0 warms tuner and caches
      for (std::size_t i = 0; i < pool.requests.size(); ++i) {
        const Request& r = pool.requests[i];
        if (!has_collective(r.kind)) continue;
        const Tracer::Scope call(&tracer, "par.collective", static_cast<std::int64_t>(i));
        const auto t0 = Clock::now();
        const Expected got = run_collective(hp, r);
        const double ms = us_since(t0) / 1e3;
        ++out.attempted;
        if (!same(r, got, pool.expected[i])) {
          out.fail("par:: collective result differs from the host reference");
        }
        if (pass == 0) continue;
        total_ms[harts - 1] += ms;
        if (harts == 2) ms_two.push_back(ms);
      }
    }
    abandoned += hp.abandoned_counts().total();
  }
  out.add("par.collective_ms_p50", median(ms_two), "ms");
  out.add("par.speedup_2v1", total_ms[1] > 0.0 ? total_ms[0] / total_ms[1] : 0.0, "ratio");
  return abandoned;
}

void measure_svm(const RequestPool& pool, unsigned vlen, Outcome& out, Tracer& tracer) {
  const Tracer::Scope span(&tracer, "svm.direct");
  rvv::Machine machine(rvv::Machine::Config{.vlen_bits = vlen});
  const rvv::MachineScope scope(machine);
  std::array<std::vector<double>, rvvsvm::serve::kNumRequestKinds> us;
  for (int pass = 0; pass < 2; ++pass) {  // pass 0 warms tuner and caches
    for (std::size_t i = 0; i < pool.requests.size(); ++i) {
      const Request& r = pool.requests[i];
      const Tracer::Scope call(&tracer, std::string("svm.") + rvvsvm::serve::to_string(r.kind),
                               static_cast<std::int64_t>(i));
      const auto t0 = Clock::now();
      const Expected got = run_direct(r);
      const double t = us_since(t0);
      ++out.attempted;
      if (!same(r, got, pool.expected[i])) out.fail("svm:: result differs from the host reference");
      if (pass == 1) us[static_cast<std::size_t>(r.kind)].push_back(t);
    }
  }
  for (std::size_t k = 0; k < us.size(); ++k) {
    if (us[k].empty()) continue;
    out.add(std::string("svm.") + rvvsvm::serve::to_string(static_cast<Kind>(k)) + "_us_p50",
            median(us[k]), "us");
  }
}

void measure_rvv(Outcome& out, Tracer& tracer) {
  namespace workloads = rvvsvm::tables::workloads;
  using T = std::uint32_t;
  // A fixed mix of the paper's kernels on the paper's inputs at VLEN 1024:
  // unsegmented and segmented scans, stream compaction and radix sort.
  constexpr std::size_t kN = 1u << 15;
  const std::vector<T> scan_in = workloads::scan_input(kN);
  const std::vector<T> seg_in = workloads::seg_input(kN);
  const std::vector<T> seg_flags = workloads::seg_head_flags(kN);
  const std::vector<T> keep = workloads::enumerate_flags(kN);
  const std::vector<T> keys = workloads::sort_keys(kN / 8);
  const auto mix = [&] {
    std::vector<T> a = scan_in;
    svm::plus_scan<T>(std::span<T>(a));
    std::vector<T> b = seg_in;
    svm::seg_plus_scan<T>(std::span<T>(b), std::span<const T>(seg_flags));
    std::vector<T> c(kN);
    static_cast<void>(svm::pack<T>(std::span<const T>(scan_in), std::span<T>(c), std::span<const T>(keep)));
    std::vector<T> d = keys;
    rvvsvm::apps::split_radix_sort<T>(std::span<T>(d));
    if (!std::is_sorted(d.begin(), d.end())) throw std::runtime_error("radix sort output unsorted");
  };

  for (const bool cached : {true, false}) {
    const Tracer::Scope span(&tracer, cached ? "rvv.cached" : "rvv.interpreted");
    rvv::Machine machine(rvv::Machine::Config{.vlen_bits = 1024, .use_exec_cache = cached});
    const rvv::MachineScope scope(machine);
    mix();  // warm tuner, decode table and traces
    std::vector<double> ns_per_inst;
    for (int rep = 0; rep < 5; ++rep) {
      const std::uint64_t before = machine.counter().snapshot().total();
      const auto t0 = Clock::now();
      mix();
      const double ns = us_since(t0) * 1e3;
      ns_per_inst.push_back(ns / static_cast<double>(machine.counter().snapshot().total() - before));
      ++out.attempted;
    }
    out.add(cached ? "rvv.ns_per_inst_cached" : "rvv.ns_per_inst_interp", median(ns_per_inst), "ns");
    if (!cached) continue;
    const rvv::ExecCacheStats& cs = machine.exec_cache().stats();
    out.add("rvv.fused_frac",
            cs.trace_replays > 0 ? static_cast<double>(cs.trace_fused) / static_cast<double>(cs.trace_replays) : 0.0,
            "ratio");
    out.add("rvv.trace_aborts", static_cast<double>(cs.trace_aborts), "count");
    const auto& ps = machine.pool_stats();
    out.add("sim.block_reuse_frac",
            ps.block_acquires > 0 ? static_cast<double>(ps.block_reuses) / static_cast<double>(ps.block_acquires) : 0.0,
            "ratio");
    out.add("sim.cell_reuse_frac",
            ps.cell_acquires > 0 ? static_cast<double>(ps.cell_reuses) / static_cast<double>(ps.cell_acquires) : 0.0,
            "ratio");
  }
}

void measure_tuner_hit(Outcome& out, Tracer& tracer) {
  const Tracer::Scope span(&tracer, "tune.choose");
  tune::AutoTuner tuner;
  const tune::Key key{.shape = tune::Shape::kScanInclusive,
                      .bucket = tune::n_bucket(64),
                      .sew = 32,
                      .vlen = kVlen,
                      .harts = 1};
  const auto measure = [](unsigned lmul) { return std::uint64_t{1000} / lmul + lmul; };
  static_cast<void>(tuner.choose(key, measure));  // the one miss
  constexpr int kBlock = 1000;
  std::vector<double> us;
  unsigned sink = 0;
  for (int b = 0; b < 30; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kBlock; ++i) sink += tuner.choose(key, measure);
    us.push_back(us_since(t0) / kBlock);
  }
  if (sink == 0 || tuner.stats().misses != 1) out.fail("tuner hit path missed");
  out.add("tune.choose_us_hit", median(us), "us");
}

}  // namespace perfbench
