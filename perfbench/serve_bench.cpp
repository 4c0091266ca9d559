// serve_small / serve_large: seeded open-loop Poisson load on a background
// ScanService at VLEN 256 and 2 harts.
//
// A run stands up kInstances fresh services.  Each one is timed through
// set-up (construction plus warm-up passes until tuner misses and trace
// recording stop), serves one reference segment at the workload's fixed
// offered rate, then bursts of the whole request pool; between services a
// foreground service runs work passes, draining the whole pool in waves.
// Traced runs also climb the rate ladder on the last service.  Every
// response is checked against its host reference, and every service's sum
// of client-visible bills must equal its merged ledger.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <span>
#include <thread>

#include "bench.hpp"
#include "serve/batcher.hpp"
#include "serve/service.hpp"
#include "snap/snapshot.hpp"
#include "stats.hpp"
#include "tune/autotuner.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using rvvsvm::check::mix_seed;
using rvvsvm::serve::ErrorCode;
using rvvsvm::serve::ScanService;
namespace sim = rvvsvm::sim;
namespace tune = rvvsvm::tune;

constexpr unsigned kHarts = 2;
constexpr unsigned kVlen = 256;
/// Fresh services per run.
constexpr std::size_t kInstances = 8;
/// A ladder rung lasts at least this long, and long enough for this many
/// requests (so p99 has ten samples beyond it).
constexpr double kRungSeconds = 1.0;
constexpr double kRungRequests = 1300.0;
constexpr unsigned kMaxWarmPasses = 6;
/// Shares of each service's time slice (--seconds / kInstances) spent on
/// bursts and on work passes; the reference segment takes ServeSpec::ref_share.
constexpr double kBurstShare = 0.3;
constexpr double kWorkShare = 0.3;
/// Requests per phase whose submit and wait become trace spans (all of them
/// feed the serve.* metrics); keeps the written trace small enough to open.
constexpr std::size_t kSpannedRequests = 2000;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Fisher-Yates shuffle of `order` in place.
void shuffle(std::vector<std::size_t>& order, Rng& rng) {
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
}

[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One service instance and the bills its clients were handed.
struct Instance {
  std::unique_ptr<ScanService> svc;
  sim::CountSnapshot client_bills;
};

/// Checks one response and charges its bill to the instance's client total.
/// Returns true when the request succeeded with a correct result.
bool account(Instance& inst, const Request& req, const Expected& want, const Response& resp,
             Outcome& out, std::size_t& failed, std::size_t& refused) {
  inst.client_bills += resp.bill;
  // A full queue is the only refusal a correct service gives these
  // requests (no budgets, deadlines, priorities or breakers are set, and no
  // service stops with requests in flight); any other error is a failure.
  if (resp.error == ErrorCode::kQueueFull) {
    ++refused;
    return false;
  }
  const std::string why = check_response(req, want, resp);
  if (why.empty()) return true;
  ++failed;
  out.fail(std::string(rvvsvm::serve::to_string(req.kind)) + " n=" +
           std::to_string(req.data.size()) + ": " + why);
  return false;
}

[[nodiscard]] std::uint64_t trace_records(ScanService& svc) {
  std::uint64_t total = 0;
  for (unsigned h = 0; h < svc.pool().harts(); ++h) {
    total += svc.pool().machine(h).exec_cache().stats().trace_records;
  }
  return total;
}

struct SetupResult {
  double seconds = 0.0;
  unsigned passes = 0;
  std::uint64_t tuner_misses = 0;
  std::uint64_t tuner_measurements = 0;
};

[[nodiscard]] ScanService::Config service_config(bool background) {
  ScanService::Config cfg;
  cfg.harts = kHarts;
  cfg.machine.vlen_bits = kVlen;
  cfg.coalesce_threshold = kCoalesceThreshold;
  cfg.queue_capacity = 1024;
  cfg.background = background;
  return cfg;
}

/// A burst: (request index, copies) entries submitted all at once.
using Plan = std::vector<std::pair<std::size_t, std::size_t>>;

/// serve_small's envelope warm-up bursts over the warm set (one request per
/// kind and size bucket, ascending): every coalescible kind at 2 copies of
/// each size, then at 4 ... 128 copies of its largest size, which between
/// them reach every envelope group size bucket.  A burst holds at most
/// max_batch (128) requests, so one wave can pop it whole.
std::vector<Plan> envelope_plans(const RequestPool& warm) {
  std::vector<std::vector<std::size_t>> kinds(rvvsvm::serve::kNumRequestKinds);
  for (std::size_t i = 0; i < warm.requests.size(); ++i) {
    if (rvvsvm::serve::coalescible(warm.requests[i].kind)) {
      kinds[static_cast<std::size_t>(warm.requests[i].kind)].push_back(i);
    }
  }
  std::erase_if(kinds, [](const auto& idx) { return idx.empty(); });
  std::vector<Plan> plans;
  for (std::size_t size = 0; size < kinds.front().size(); ++size) {
    Plan& plan = plans.emplace_back();
    for (const auto& idx : kinds) plan.emplace_back(idx[size], 2);
  }
  for (std::size_t copies = 4; copies <= 128; copies *= 2) {
    if (copies * kinds.size() <= 128) {
      Plan& plan = plans.emplace_back();
      for (const auto& idx : kinds) plan.emplace_back(idx.back(), copies);
    } else {
      for (const auto& idx : kinds) plans.push_back({{idx.back(), copies}});
    }
  }
  return plans;
}

/// What a user pays before the first timed result: a cold tuner, a new
/// service, and warm-up passes until a pass runs no tuner measurement and
/// its one-request-at-a-time part records no trace.  A pass sends every
/// (kind, size bucket) of the warm set one at a time; serve_small's passes
/// then send the envelope bursts and the workload's own requests in bursts
/// of 1, 2, 4 ... 128, which reach every data-dependent inner size.
SetupResult setup_instance(Instance& inst, const ServeSpec& spec, const RequestPool& warm,
                           const RequestPool& pool, Outcome& out, Tracer* tracer) {
  const auto t0 = Clock::now();
  const Tracer::Scope span(tracer, "serve.setup");
  tune::AutoTuner& tuner = tune::AutoTuner::global();
  tuner.invalidate();
  const tune::Stats tuner0 = tuner.stats();
  {
    const Tracer::Scope construct(tracer, "serve.construct");
    inst.svc = std::make_unique<ScanService>(service_config(true));
  }

  SetupResult r;
  std::size_t failed = 0;
  std::size_t refused = 0;
  std::size_t warm_sort = 0;  // the largest sort: the scheduler blocker
  for (std::size_t i = 0; i < warm.requests.size(); ++i) {
    if (warm.requests[i].kind == Kind::kSort) warm_sort = i;
  }
  const std::vector<Plan> envelopes = spec.large ? std::vector<Plan>{} : envelope_plans(warm);
  // Submits a plan at once and checks every response.  With blockers, a
  // wave of individual sorts first holds the scheduler while the plan
  // queues behind it, so the next wave pops the plan whole.
  const auto serve_plan = [&](const RequestPool& from, const Plan& plan, std::size_t blockers) {
    std::vector<std::pair<std::size_t, std::future<Response>>> futs;
    for (std::size_t b = 0; b < blockers; ++b) {
      futs.emplace_back(warm_sort, inst.svc->submit(Request(warm.requests[warm_sort])));
    }
    if (blockers > 0) std::this_thread::sleep_for(std::chrono::microseconds(100));
    for (const auto& [i, copies] : plan) {
      for (std::size_t c = 0; c < copies; ++c) futs.emplace_back(i, inst.svc->submit(Request(from.requests[i])));
    }
    for (std::size_t j = 0; j < futs.size(); ++j) {
      const RequestPool& src = j < blockers ? warm : from;
      const std::size_t i = futs[j].first;
      account(inst, src.requests[i], src.expected[i], futs[j].second.get(), out, failed, refused);
    }
    out.attempted += futs.size();
  };
  while (r.passes < kMaxWarmPasses) {
    const std::uint64_t measured = tuner.stats().measurements;
    const std::uint64_t records = trace_records(*inst.svc);
    const Tracer::Scope pass(tracer, "serve.warm_pass");
    for (std::size_t i = 0; i < warm.requests.size(); ++i) serve_plan(warm, {{i, 1}}, 0);
    const std::uint64_t lone_records = trace_records(*inst.svc) - records;
    if (!spec.large) {
      for (const Plan& plan : envelopes) {
        std::size_t total = 0;
        for (const auto& entry : plan) total += entry.second;
        serve_plan(warm, plan, std::min<std::size_t>(8, 1 + total / 16));
      }
      std::size_t burst = 1;
      for (std::size_t first = 0; first < pool.requests.size(); first += burst) {
        burst = burst >= 128 ? 1 : burst * 2;
        Plan plan;
        for (std::size_t i = first; i < std::min(pool.requests.size(), first + burst); ++i) plan.emplace_back(i, 1);
        serve_plan(pool, plan, 0);
      }
    }
    ++r.passes;
    if (r.passes >= 2 && tuner.stats().measurements == measured && lone_records == 0) break;
  }
  if (refused != 0) out.fail("warm-up request refused");
  r.seconds = seconds_since(t0);
  r.tuner_misses = tuner.stats().misses - tuner0.misses;
  r.tuner_measurements = tuner.stats().measurements - tuner0.measurements;
  return r;
}

/// One open-loop phase, as measured by the generator thread.
struct Phase {
  std::vector<double> latency_ms;  ///< per sent request, in send order; misses are +inf
  std::vector<double> lag_us;      ///< actual minus scheduled send time
  std::vector<double> submit_us;   ///< time inside submit()
  std::vector<double> wait_ms;     ///< submit return -> response observed
  std::vector<std::size_t> picks;  ///< pool index of each arrival
  std::size_t sent = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  std::size_t refused = 0;
  std::size_t backlog_at_end = 0;
  double window_s = 0.0;
};

/// Sends pool requests at seeded Poisson times over `window_s` seconds and
/// collects every response.  Latency runs from each request's scheduled
/// send time to when the generator sees its response, so a generator stall
/// is charged to the requests it delays, and shows in lag_us.
Phase run_open_loop(Instance& inst, const RequestPool& pool, std::uint64_t seed, double rate,
                    double window_s, bool abort_on_backlog, Outcome& out, Tracer* tracer,
                    const char* phase, const char* label) {
  const std::vector<double> offsets = poisson_schedule(seed, rate, window_s);
  Phase ph;
  ph.window_s = window_s;
  // Arrivals walk seeded permutations of the pool, so every distinct
  // request is sent equally often.
  Rng pick_rng(mix_seed(seed, 7));
  std::vector<std::size_t> perm(pool.requests.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  ph.picks.reserve(offsets.size());
  while (ph.picks.size() < offsets.size()) {
    shuffle(perm, pick_rng);
    const std::size_t take = std::min(perm.size(), offsets.size() - ph.picks.size());
    ph.picks.insert(ph.picks.end(), perm.begin(), perm.begin() + static_cast<std::ptrdiff_t>(take));
  }
  ph.latency_ms.assign(offsets.size(), kInf);
  ph.lag_us.reserve(offsets.size());

  const Tracer::Scope phase_span(tracer, phase);
  const std::int64_t phase_id = tracer != nullptr ? tracer->current() : kNoParent;

  struct InFlight {
    std::size_t arrival;
    Clock::time_point due;
    Clock::time_point returned;
    std::future<Response> fut;
  };
  std::vector<InFlight> inflight;
  inflight.reserve(1024);
  std::size_t cursor = 0;

  const auto poll = [&](std::size_t budget) {
    budget = std::min(budget, inflight.size());
    for (std::size_t scanned = 0; scanned < budget && !inflight.empty(); ++scanned) {
      if (cursor >= inflight.size()) cursor = 0;
      InFlight& f = inflight[cursor];
      if (f.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++cursor;
        continue;
      }
      const auto seen = Clock::now();
      const Response resp = f.fut.get();
      const std::size_t k = ph.picks[f.arrival];
      if (account(inst, pool.requests[k], pool.expected[k], resp, out, ph.failed, ph.refused)) {
        ++ph.succeeded;
        ph.latency_ms[f.arrival] = ms_between(f.due, seen);
      }
      if (tracer != nullptr) {
        ph.wait_ms.push_back(ms_between(f.returned, seen));
        if (f.arrival < kSpannedRequests) {
          tracer->record("serve.wait", tracer->to_ns(f.returned), tracer->to_ns(seen), phase_id,
                         static_cast<std::int64_t>(f.arrival), true);
        }
      }
      inflight[cursor] = std::move(inflight.back());
      inflight.pop_back();
    }
  };

  constexpr std::size_t kPollBudget = 128;
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const auto at = [&](double offset) {
    return start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(offset));
  };
  const std::size_t abort_at =
      abort_on_backlog ? backlog_abort_limit(offsets.size()) : std::numeric_limits<std::size_t>::max();
  std::size_t sent_count = 0;
  for (std::size_t i = 0; i < offsets.size() && inflight.size() <= abort_at; ++i, ++sent_count) {
    Request req(pool.requests[ph.picks[i]]);  // the client builds it before it is due
    const auto due = at(offsets[i]);
    while (Clock::now() < due) poll(kPollBudget);
    const auto sent = Clock::now();
    std::future<Response> fut = inst.svc->submit(std::move(req));
    const auto returned = Clock::now();
    ph.lag_us.push_back(std::chrono::duration<double, std::micro>(sent - due).count());
    if (tracer != nullptr) {
      ph.submit_us.push_back(std::chrono::duration<double, std::micro>(returned - sent).count());
      if (i < kSpannedRequests) {
        tracer->record("serve.submit", tracer->to_ns(sent), tracer->to_ns(returned), phase_id,
                       static_cast<std::int64_t>(i));
      }
    }
    inflight.push_back(InFlight{i, due, returned, std::move(fut)});
  }
  ph.sent = sent_count;
  ph.latency_ms.resize(sent_count);
  ph.picks.resize(sent_count);
  const auto window_end = at(window_s);
  while (sent_count == offsets.size() && Clock::now() < window_end) poll(kPollBudget);
  ph.backlog_at_end = inflight.size();
  while (!inflight.empty()) poll(kPollBudget);
  out.attempted += ph.sent;

  const Summary lat = summarize(ph.latency_ms);
  const Summary lag = summarize(ph.lag_us);
  std::printf(
      "  %-14s offered %8.0f/s  sent %6zu: ok %6zu, failed %zu, refused %zu  backlog@end %zu"
      "  latency p50 %.4f ms, p99 %.4f ms (windowed %.4f)  send lag p50 %.2f us, p99 %.2f us\n",
      label, rate, ph.sent, ph.succeeded, ph.failed, ph.refused, ph.backlog_at_end, lat.p50,
      lat.p99, windowed_p99(ph.latency_ms), lag.p50, lag.p99);
  return ph;
}

/// Stops the service and checks double-entry billing: the bills its clients
/// received, the billing ledger and the pool's merged counts all agree.
bool close_instance(Instance& inst, Outcome& out) {
  inst.svc->stop();
  const sim::CountSnapshot billed = inst.svc->billing().grand_total();
  const sim::CountSnapshot merged = inst.svc->pool().merged_counts();
  if (billed == merged && inst.client_bills == merged) return true;
  out.fail("bills inexact: client bills " + std::to_string(inst.client_bills.total()) +
           ", ledger " + std::to_string(billed.total()) + ", merged " +
           std::to_string(merged.total()));
  return false;
}

/// What a run's bursts measured: each burst's rate, and the service's waves
/// over all of them.
struct Bursts {
  std::vector<double> rps;
  std::uint64_t admitted = 0;
  std::uint64_t waves = 0;
};

/// Bursts for `budget_s` seconds (at least one): the whole request pool, in
/// a fresh seeded order each time so the run's median covers many wave
/// compositions, submitted at once to the warmed background service and
/// timed from the first submit to the last response.  The pool fits the
/// queue, so a refusal is a failure here.
void run_bursts(Instance& inst, const RequestPool& pool, std::uint64_t seed, double budget_s,
                Outcome& out, Tracer* tracer, Bursts& b) {
  const auto start = Clock::now();
  Rng rng(seed);
  std::vector<std::size_t> order(pool.requests.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::size_t failed = 0;
  std::size_t refused = 0;
  do {
    shuffle(order, rng);
    std::vector<Request> batch;  // the client builds them first
    batch.reserve(order.size());
    for (const std::size_t i : order) batch.push_back(pool.requests[i]);
    std::vector<std::future<Response>> futs;
    futs.reserve(batch.size());
    const ScanService::Stats s0 = inst.svc->stats();
    const Tracer::Scope span(tracer, "client.burst", static_cast<std::int64_t>(b.rps.size()));
    const auto t0 = Clock::now();
    for (Request& req : batch) futs.push_back(inst.svc->submit(std::move(req)));
    for (std::future<Response>& f : futs) f.wait();
    const double s = seconds_since(t0);
    const ScanService::Stats s1 = inst.svc->stats();
    for (std::size_t j = 0; j < futs.size(); ++j) {
      const std::size_t i = order[j];
      account(inst, pool.requests[i], pool.expected[i], futs[j].get(), out, failed, refused);
    }
    out.attempted += futs.size();
    b.rps.push_back(static_cast<double>(futs.size()) / s);
    b.admitted += s1.admitted - s0.admitted;
    b.waves += s1.waves - s0.waves;
  } while (seconds_since(start) < budget_s);
  if (refused != 0) out.fail("burst request refused");
}

/// One work pass: the whole request pool, in a fresh seeded order, submitted
/// to a foreground service and drained on the calling thread in full waves,
/// so neither a scheduler thread nor client wake-ups sit in the chain, only
/// each wave's fork-join across the harts.  Returns the seconds from the
/// first submit to the end of the drain.
double work_pass(Instance& fg, const RequestPool& pool, Rng& rng, Outcome& out, Tracer* tracer) {
  const Tracer::Scope span(tracer, "client.work_pass");
  std::vector<std::size_t> order(pool.requests.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  shuffle(order, rng);
  std::vector<Request> batch;
  batch.reserve(order.size());
  for (const std::size_t i : order) batch.push_back(pool.requests[i]);
  std::vector<std::future<Response>> futs;
  futs.reserve(batch.size());
  const auto t0 = Clock::now();
  for (Request& req : batch) futs.push_back(fg.svc->submit(std::move(req)));
  static_cast<void>(fg.svc->drain());
  const double s = seconds_since(t0);
  std::size_t failed = 0;
  std::size_t refused = 0;
  for (std::size_t j = 0; j < futs.size(); ++j) {
    const std::size_t i = order[j];
    account(fg, pool.requests[i], pool.expected[i], futs[j].get(), out, failed, refused);
  }
  out.attempted += futs.size();
  if (refused != 0) out.fail("work-pass request refused");
  return s;
}

void append(std::vector<double>& dst, const std::vector<double>& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// serve.wave_ms_p50 and serve.envelope_us: the reference traffic replayed
/// through a foreground service in waves of `reqs_per_wave` requests (the
/// mean wave of the bursts, a saturated service's), so each drain() is one wave
/// timed alone; each wave's coalesced members also go through the
/// batcher's envelope functions directly.
void replay_waves(const RequestPool& pool, const RequestPool& warm,
                  const std::vector<std::size_t>& picks, double reqs_per_wave, Outcome& out,
                  Tracer& tracer) {
  namespace serve = rvvsvm::serve;
  const Tracer::Scope span(&tracer, "serve.replay");
  tune::AutoTuner::global().invalidate();
  Instance inst;
  inst.svc = std::make_unique<ScanService>(service_config(false));
  std::size_t failed = 0;
  std::size_t refused = 0;
  for (unsigned pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < warm.requests.size(); ++i) {
      const Response resp = inst.svc->call(Request(warm.requests[i]));
      account(inst, warm.requests[i], warm.expected[i], resp, out, failed, refused);
    }
  }
  out.attempted += 2 * warm.requests.size();

  const auto wave_size = std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(reqs_per_wave)));
  constexpr std::size_t kMaxWaves = 400;
  std::vector<double> wave_ms;
  std::vector<double> envelope_us;
  for (std::size_t first = 0; first < picks.size() && wave_ms.size() < kMaxWaves; first += wave_size) {
    const std::size_t last = std::min(picks.size(), first + wave_size);
    std::vector<std::future<Response>> futs;
    for (std::size_t i = first; i < last; ++i) {
      futs.push_back(inst.svc->submit(Request(pool.requests[picks[i]])));
    }
    const auto t0 = Clock::now();
    {
      const Tracer::Scope drain(&tracer, "serve.drain");
      static_cast<void>(inst.svc->drain());
    }
    wave_ms.push_back(ms_between(t0, Clock::now()));

    std::array<std::vector<const Request*>, serve::kNumRequestKinds> by_kind;
    std::array<sim::CountSnapshot, serve::kNumRequestKinds> kind_bill;
    for (std::size_t i = first; i < last; ++i) {
      const std::size_t k = picks[i];
      const Response resp = futs[i - first].get();
      account(inst, pool.requests[k], pool.expected[k], resp, out, failed, refused);
      const Request& req = pool.requests[k];
      if (resp.coalesced) {
        by_kind[static_cast<std::size_t>(req.kind)].push_back(&req);
        kind_bill[static_cast<std::size_t>(req.kind)] += resp.bill;
      }
    }
    out.attempted += last - first;
    for (std::size_t kind = 0; kind < by_kind.size(); ++kind) {
      const auto& members = by_kind[kind];
      if (members.empty()) continue;
      const Tracer::Scope env_span(&tracer, "serve.envelope");
      const auto e0 = Clock::now();
      const serve::Envelope env =
          serve::build_envelope(std::span<const Request* const>(members.data(), members.size()));
      const std::vector<serve::GroupRange> groups = serve::partition_groups(env, kHarts);
      std::vector<std::size_t> sizes(env.members());
      for (std::size_t m = 0; m < sizes.size(); ++m) sizes[m] = env.member_size(m);
      const std::vector<sim::CountSnapshot> bills =
          serve::apportion_bill(kind_bill[kind], std::span<const std::size_t>(sizes));
      envelope_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - e0).count());
      if (groups.empty() || bills.size() != members.size()) out.fail("envelope functions disagree");
    }
  }
  if (refused != 0) out.fail("replayed request refused");
  close_instance(inst, out);
  out.add("serve.wave_ms_p50", median(wave_ms), "ms");
  out.add("serve.envelope_us", median(envelope_us), "us");
}

/// snap.*: save the warmed pool, restore it into a fresh pool of the same
/// shape.
void measure_snapshot(ScanService& svc, Outcome& out, Tracer& tracer) {
  namespace snap = rvvsvm::snap;
  tune::AutoTuner& tuner = tune::AutoTuner::global();
  std::vector<double> save_ms;
  std::vector<double> restore_ms;
  snap::Blob blob;
  const ScanService::Config cfg = service_config(false);
  rvvsvm::par::HartPool target(rvvsvm::par::HartPool::Config{
      .harts = cfg.harts, .shard_size = cfg.shard_size, .machine = cfg.machine, .recovery = cfg.recovery});
  for (int rep = 0; rep < 5; ++rep) {
    auto t0 = Clock::now();
    {
      const Tracer::Scope s(&tracer, "snap.save");
      blob = snap::save_pool(svc.pool(), &tuner);
    }
    save_ms.push_back(ms_between(t0, Clock::now()));
    t0 = Clock::now();
    {
      const Tracer::Scope s(&tracer, "snap.restore");
      snap::restore_pool(target, blob, &tuner);
    }
    restore_ms.push_back(ms_between(t0, Clock::now()));
  }
  if (target.merged_counts() != svc.pool().merged_counts()) {
    out.fail("restored pool ledger differs from the saved pool");
  }
  out.add("snap.save_ms", median(save_ms), "ms");
  out.add("snap.restore_ms", median(restore_ms), "ms");
  out.add("snap.blob_kb", static_cast<double>(blob.size()) / 1024.0, "KiB");
}

}  // namespace

void run_serve(const Options& opt, Outcome& out, Tracer* tracer) {
  const ServeSpec& spec = serve_spec(opt.workload);
  const RequestPool pool = make_pool(spec, opt.seed);
  const RequestPool warm = warm_set(spec);
  std::printf("%s: seed %llu, %zu distinct requests, warm set %zu, VLEN %u, %u harts\n", spec.name,
              static_cast<unsigned long long>(opt.seed), pool.requests.size(), warm.requests.size(),
              kVlen, kHarts);

  const double per_instance_s = opt.seconds / static_cast<double>(kInstances);
  std::vector<double> setup_s;
  std::vector<double> misses_setup;
  std::vector<double> measurements_setup;
  Phase ref;  // pooled reference segments
  Bursts bursts;
  std::vector<double> work_s;
  Rng work_rng(mix_seed(opt.seed, 40));
  std::vector<Rung> ladder;
  std::uint64_t ref_insts = 0;
  std::uint64_t ref_epochs = 0;
  std::uint64_t abandoned = 0;
  ScanService::Stats ref_stats;  // summed reference-segment deltas
  tune::Stats ref_tuner;
  std::size_t all_sent = 0;
  std::size_t all_failed = 0;
  std::size_t all_refused = 0;
  bool bills_exact = true;
  std::ptrdiff_t top_rung = -1;
  Instance fg;  // the foreground service of the work passes

  for (std::size_t k = 0; k < kInstances; ++k) {
    Instance inst;
    const SetupResult s = setup_instance(inst, spec, warm, pool, out, tracer);
    setup_s.push_back(s.seconds);
    misses_setup.push_back(static_cast<double>(s.tuner_misses));
    measurements_setup.push_back(static_cast<double>(s.tuner_measurements));
    std::printf("  setup %zu: %.3f ms, %u warm passes, %llu tuner misses\n", k + 1, s.seconds * 1e3,
                s.passes, static_cast<unsigned long long>(s.tuner_misses));

    ScanService& svc = *inst.svc;
    const sim::CountSnapshot merged0 = svc.pool().merged_counts();
    const std::uint64_t epochs0 = svc.pool().epochs();
    const ScanService::Stats stats0 = svc.stats();
    const tune::Stats tuner0 = tune::AutoTuner::global().stats();
    char label[32];
    std::snprintf(label, sizeof label, "reference %zu/%zu", k + 1, kInstances);
    Phase seg = run_open_loop(inst, pool, mix_seed(opt.seed, k), spec.ref_rate,
                              spec.ref_share * per_instance_s, false, out, tracer, "client.reference",
                              label);
    ref_insts += (svc.pool().merged_counts() - merged0).total();
    ref_epochs += svc.pool().epochs() - epochs0;
    const ScanService::Stats stats1 = svc.stats();
    ref_stats.admitted += stats1.admitted - stats0.admitted;
    ref_stats.waves += stats1.waves - stats0.waves;
    ref_stats.coalesced_requests += stats1.coalesced_requests - stats0.coalesced_requests;
    ref_stats.coalesced_batches += stats1.coalesced_batches - stats0.coalesced_batches;
    const tune::Stats tuner1 = tune::AutoTuner::global().stats();
    ref_tuner.hits += tuner1.hits - tuner0.hits;
    ref_tuner.misses += tuner1.misses - tuner0.misses;

    all_sent += seg.sent;
    all_failed += seg.failed;
    all_refused += seg.refused;
    ref.sent += seg.sent;
    ref.succeeded += seg.succeeded;
    ref.failed += seg.failed;
    ref.refused += seg.refused;
    append(ref.latency_ms, seg.latency_ms);
    append(ref.lag_us, seg.lag_us);
    append(ref.submit_us, seg.submit_us);
    append(ref.wait_ms, seg.wait_ms);
    if (k == 0) ref.picks = seg.picks;

    run_bursts(inst, pool, mix_seed(opt.seed, 50 + k), kBurstShare * per_instance_s, out, tracer,
               bursts);

    // The foreground service starts on the tuner the first set-up warmed;
    // its first pass warms its own caches and is not counted.
    if (!fg.svc) fg.svc = std::make_unique<ScanService>(service_config(false));
    const auto work_start = Clock::now();
    if (k == 0) static_cast<void>(work_pass(fg, pool, work_rng, out, tracer));
    do {
      work_s.push_back(work_pass(fg, pool, work_rng, out, tracer));
    } while (seconds_since(work_start) < kWorkShare * per_instance_s);

    if (opt.ladder && k + 1 == kInstances) {
      // Bisect the fixed rate ladder for its highest rung within the SLO.
      const auto trial = [&](std::size_t r, unsigned attempt) {
        const double rate = spec.ladder[r];
        std::snprintf(label, sizeof label, "ladder %zu", r + 1);
        const Phase ph = run_open_loop(inst, pool, mix_seed(opt.seed, 100 + 2 * r + attempt), rate,
                                       std::max(kRungSeconds, kRungRequests / rate), true, out, tracer,
                                       "client.ladder", label);
        all_sent += ph.sent;
        all_failed += ph.failed;
        all_refused += ph.refused;
        ladder.push_back(Rung{.rate = rate,
                              .window_s = ph.window_s,
                              .sent = ph.sent,
                              .succeeded = ph.succeeded,
                              .backlog_at_end = ph.backlog_at_end,
                              .p99_ms = windowed_p99(ph.latency_ms),
                              .p99_supported = ph.sent >= kWindow});
        return rung_meets_slo(ladder.back(), spec.slo_ms);
      };
      // A rung that misses gets a second, independent trial before the
      // search counts it as missed.
      top_rung = search_ladder(spec.ladder.size(),
                               [&](std::size_t r) { return trial(r, 0) || trial(r, 1); });
    }
    bills_exact = close_instance(inst, out) && bills_exact;
    abandoned += svc.pool().abandoned_counts().total();
    if (tracer != nullptr && spec.large && k + 1 == kInstances) {
      measure_snapshot(svc, out, *tracer);
    }
  }
  bills_exact = close_instance(fg, out) && bills_exact;
  abandoned += fg.svc->pool().abandoned_counts().total();

  const Summary lat = summarize(ref.latency_ms);
  const Summary lag = summarize(ref.lag_us);
  const std::vector<double> ref_windows = window_p99s(ref.latency_ms);
  const double burst_wave = static_cast<double>(bursts.admitted) /
                            static_cast<double>(std::max<std::uint64_t>(1, bursts.waves));
  std::printf(
      "%s reference: offered %.0f/s over %zu fresh services, %zu samples; p50 %.4f ms;"
      " pooled p99 %.4f ms, pooled p%.1f %.4f ms (the highest percentile with >= %zu samples"
      " beyond); p99 of %zu 1000-request windows: geometric mean %.4f ms, median %.4f ms;"
      " send lag p50 %.2f us, p99 %.2f us\n",
      spec.name, spec.ref_rate, kInstances, lat.samples, lat.p50, lat.p99, lat.tail_pct, lat.tail,
      kMinBeyond, ref_windows.size(), windowed_p99(ref.latency_ms), median(ref_windows), lag.p50,
      lag.p99);
  // Medians: each burst and pass runs its own seeded order, and so its own
  // waves, so the fastest ones are lucky orders; the median of a few hundred
  // (serve_small) or a few dozen (serve_large) also rides out the host's
  // slow spells within a run.
  std::sort(bursts.rps.begin(), bursts.rps.end());
  std::sort(work_s.begin(), work_s.end());
  const double burst_rps = median(bursts.rps);
  const double work_median_s = median(work_s);
  std::printf("%s bursts: %zu of %zu requests, median %.0f requests/s (slowest %.0f, p90 %.0f,"
              " fastest %.0f), %.1f requests per wave\n",
              spec.name, bursts.rps.size(), pool.requests.size(), burst_rps, bursts.rps.front(),
              percentile_sorted(bursts.rps, 90.0), bursts.rps.back(), burst_wave);
  std::printf("%s work passes: %zu of %zu requests drained in full waves, median %.6f s (fastest"
              " %.6f, p10 %.6f, slowest %.6f)\n",
              spec.name, work_s.size(), pool.requests.size(), work_median_s, work_s.front(),
              percentile_sorted(work_s, 10.0), work_s.back());
  if (opt.ladder) {
    std::printf("%s ladder: highest rung within p99 <= %.1f ms and no growing backlog: %td of %zu"
                " (%zu rungs measured)\n",
                spec.name, spec.slo_ms, top_rung + 1, spec.ladder.size(), ladder.size());
  }
  std::printf("%s requests: open loop sent %zu: failed %zu, refused %zu (reference: sent %zu: ok %zu,"
              " failed %zu, refused %zu)\n",
              spec.name, all_sent, all_failed, all_refused, ref.sent, ref.succeeded, ref.failed,
              ref.refused);
  if (ref_windows.empty()) out.fail("reference phase holds fewer than 1000 samples");
  if (ref.succeeded == 0) out.fail("no reference request succeeded");

  out.add("burst_rps", burst_rps, "1/s");
  out.add("insts_per_req",
          static_cast<double>(ref_insts) / static_cast<double>(std::max<std::size_t>(1, ref.succeeded)),
          "insts");
  out.add("work_s", work_median_s, "s");
  out.add("setup_s", median(setup_s), "s");
  // The client's view of open-loop latency, reported with the per-layer
  // metrics: on a virtual machine it is mostly thread wake-up and hypervisor
  // stall time, which moves several-fold with host load.
  out.add("client.latency_p50_ms", lat.p50, "ms");
  out.add("client.latency_p99_ms", lat.p99, "ms");
  out.add("client.send_lag_us_p99", lag.p99, "us");
  if (opt.ladder) {
    const double max_rps = max_rps_at_slo(ladder, spec.slo_ms);
    if (max_rps <= 0.0) out.fail("no ladder rung met the SLO");
    out.add("client.max_rps_at_slo", max_rps, "1/s");
  }

  if (tracer == nullptr) return;
  const Summary submit = summarize(ref.submit_us);
  const Summary wait = summarize(ref.wait_ms);
  const auto frac = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  out.add("serve.submit_us_p50", submit.p50, "us");
  out.add("serve.submit_us_p99", submit.p99, "us");
  out.add("serve.wait_ms_p50", wait.p50, "ms");
  out.add("serve.wait_ms_p99", wait.p99, "ms");
  out.add("serve.reqs_per_wave",
          frac(static_cast<double>(ref_stats.admitted), static_cast<double>(ref_stats.waves)), "count");
  out.add("serve.coalesced_frac",
          frac(static_cast<double>(ref_stats.coalesced_requests), static_cast<double>(ref_stats.admitted)),
          "ratio");
  out.add("serve.batch_members",
          frac(static_cast<double>(ref_stats.coalesced_requests),
               static_cast<double>(ref_stats.coalesced_batches)),
          "count");
  // At the reference rate; overloaded ladder rungs refuse by design.
  out.add("serve.refused_frac", frac(static_cast<double>(ref.refused), static_cast<double>(ref.sent)),
          "ratio");
  out.add("serve.failed_frac", frac(static_cast<double>(ref.failed), static_cast<double>(ref.sent)),
          "ratio");
  out.add("serve.bills_exact", bills_exact ? 1.0 : 0.0, "bool");
  out.add("par.epochs_per_req",
          frac(static_cast<double>(ref_epochs), static_cast<double>(ref.succeeded)), "count");
  out.add("tune.misses_setup", median(misses_setup), "count");
  out.add("tune.measurements_setup", median(measurements_setup), "count");
  out.add("tune.hit_frac_steady",
          frac(static_cast<double>(ref_tuner.hits), static_cast<double>(ref_tuner.hits + ref_tuner.misses)),
          "ratio");

  replay_waves(pool, warm, ref.picks, burst_wave, out, *tracer);
  measure_svm(pool, kVlen, out, *tracer);
  measure_par_epoch(out, *tracer);
  measure_rvv(out, *tracer);
  if (spec.large) {
    abandoned += measure_collectives(pool, out, *tracer);
    measure_tables(opt, out, *tracer);
  }
  measure_tuner_hit(out, *tracer);
  // Rolled-back work across every pool of the run (0 without faults).
  out.add("par.abandoned_insts", static_cast<double>(abandoned), "insts");
}

}  // namespace perfbench
