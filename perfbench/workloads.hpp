// Seeded serve workloads: a pool of distinct requests, each with the host
// reference result every response is checked against, and the open-loop
// arrival stream that draws from it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace perfbench {

using rvvsvm::serve::Kind;
using rvvsvm::serve::Request;
using rvvsvm::serve::Response;
using rvvsvm::serve::Value;

/// Host reference for one request (what a correct response carries).
struct Expected {
  std::vector<Value> data;  ///< scan/compress/sort output or histogram bins
  Value scalar = 0;         ///< reduce result
};

/// ScanService::Config::coalesce_threshold of both serve workloads.
inline constexpr std::size_t kCoalesceThreshold = 1024;

/// The fixed parameters of a serve workload.
struct ServeSpec {
  const char* name;
  bool large;                       ///< whole-pool requests (serve_large)
  std::size_t distinct_requests;    ///< size of the request pool
  double ref_rate;                  ///< reference offered rate, requests/s
  double ref_share;                 ///< share of --seconds at the reference rate
  double slo_ms;                    ///< p99 latency limit of the rate ladder
  std::vector<double> ladder;       ///< offered rates, ascending (geometric)
};

[[nodiscard]] const ServeSpec& serve_spec(const std::string& workload);

/// Seeded request pool: pool[i] and its host reference expected[i].  Kind
/// shares are exact and sizes stratified, so the seed moves the data far
/// more than the cost mix.
struct RequestPool {
  std::vector<Request> requests;
  std::vector<Expected> expected;
};

[[nodiscard]] RequestPool make_pool(const ServeSpec& spec, std::uint64_t seed);

/// One request per (kind, size bucket) the workload can produce, each at the
/// bucket's top size — the warm-up set of a fresh service.
[[nodiscard]] RequestPool warm_set(const ServeSpec& spec);

/// Host reference result.
[[nodiscard]] Expected reference(const Request& req);

/// Empty when `resp` is a correct response to `req`; otherwise what differs.
[[nodiscard]] std::string check_response(const Request& req, const Expected& want,
                                         const Response& resp);

/// Runs the request's kernel directly on the calling thread's active machine
/// (svm:: / apps:: entry points, as the service's individual path does) and
/// returns the output the service would answer with.
[[nodiscard]] Expected run_direct(const Request& req);

}  // namespace perfbench
