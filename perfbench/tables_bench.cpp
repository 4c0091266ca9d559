// paper_tables: every tables::registry() table computed in-process on one
// thread and compared byte for byte with its committed golden JSON.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "stats.hpp"
#include "tables/json.hpp"
#include "tables/paper_tables.hpp"

namespace perfbench {

namespace {

namespace tables = rvvsvm::tables;

/// Golden loads per burst.
constexpr int kLoadBurst = 4;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Loads and parses every golden into `golden`; returns the seconds taken.
double load_goldens(const std::string& dir, const std::vector<tables::TableSpec>& registry,
                    std::vector<std::string>& golden, Tracer* tracer) {
  const Tracer::Scope span(tracer, "tables.load_goldens");
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    golden[i] = read_file(dir + registry[i].id + ".json");
    static_cast<void>(tables::from_json(golden[i]));
  }
  return seconds_since(t0);
}

/// What the passes of one run measured.
struct TableRun {
  std::vector<double> table_s;  ///< each table's fastest compute
  std::vector<double> check_s;  ///< each table's fastest golden compare
  double setup_s = 0.0;         ///< fastest golden load-and-parse
  std::uint64_t counted = 0;    ///< dynamic instructions the tables report
};

/// Computes every table and compares it with its golden, in passes while
/// --seconds allows another (at least one).
TableRun time_tables(const Options& opt, Outcome& out, Tracer* tracer) {
  const std::vector<tables::TableSpec>& registry = tables::registry();
  const std::string dir = opt.root + "/tests/golden/";

  // Set-up: load and parse every golden.  It is repeated in bursts before
  // every table of every pass, so its samples spread over the whole run like
  // the tables' own, and setup_s is the fastest of them for the same reason.
  // The first load of a burst runs on caches the table before it evicted.
  std::vector<std::string> golden(registry.size());
  double setup_s = std::numeric_limits<double>::infinity();
  std::size_t loads = 0;
  const auto load_burst = [&] {
    for (int rep = 0; rep < kLoadBurst; ++rep, ++loads) {
      setup_s = std::min(setup_s, load_goldens(dir, registry, golden, tracer));
    }
  };
  load_burst();

  // Measured passes: at least one, more while --seconds allows another.
  // Each table's time is the fastest of its passes: the work is fixed and
  // deterministic, so the spread between passes is interference, which
  // only ever slows a pass down.
  std::vector<double> pass_s;
  std::vector<double> table_s(registry.size(), std::numeric_limits<double>::infinity());
  std::vector<double> check_s(registry.size(), std::numeric_limits<double>::infinity());
  std::uint64_t counted = 0;  // dynamic instructions the tables report
  const auto start = Clock::now();
  do {
    double pass = 0.0;
    double check = 0.0;
    for (std::size_t i = 0; i < registry.size(); ++i) {
      load_burst();
      const tables::TableSpec& spec = registry[i];
      const Tracer::Scope span(tracer, std::string("tables.") + spec.id);
      const auto t0 = Clock::now();
      const tables::TableData data = spec.compute();
      const auto t1 = Clock::now();
      bool same = false;
      {
        const Tracer::Scope check_span(tracer, "tables.check");
        same = tables::to_json(data) == golden[i];
      }
      const auto t2 = Clock::now();
      ++out.attempted;
      if (!same) {
        out.fail(std::string("golden mismatch: ") + spec.id + "\n" +
                 tables::diff_tables(tables::from_json(golden[i]), data));
      }
      if (pass_s.empty()) {
        for (const tables::Row& row : data.rows) {
          for (const auto& count : row.counts) counted += count.second;
        }
      }
      const double compute = std::chrono::duration<double>(t1 - t0).count();
      const double cmp = std::chrono::duration<double>(t2 - t1).count();
      table_s[i] = std::min(table_s[i], compute);
      check_s[i] = std::min(check_s[i], cmp);
      pass += compute + cmp;
      check += cmp;
    }
    pass_s.push_back(pass);
    std::printf("  pass %zu: %.4f s for %zu tables (golden compare %.6f s)\n", pass_s.size(), pass,
                registry.size(), check);
  } while (seconds_since(start) + pass_s.back() <= opt.seconds);

  std::printf("tables: %zu tables x %zu passes, every table byte-equal to tests/golden: %s;"
              " fastest of %zu golden loads %.6f s\n",
              registry.size(), pass_s.size(), out.correct ? "yes" : "NO", loads, setup_s);
  return TableRun{std::move(table_s), std::move(check_s), setup_s, counted};
}

double sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

void add_table_layers(const TableRun& r, Outcome& out) {
  const std::vector<tables::TableSpec>& registry = tables::registry();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    out.add(std::string("tables.") + registry[i].id + "_s", r.table_s[i], "s");
  }
  out.add("tables.check_s", sum(r.check_s), "s");
}

}  // namespace

void run_tables(const Options& opt, Outcome& out, Tracer* tracer) {
  const TableRun r = time_tables(opt, out, tracer);
  // A request here is one table, and the work is every table once.
  const double work_s = sum(r.table_s) + sum(r.check_s);
  const auto tables = static_cast<double>(r.table_s.size());
  out.add("burst_rps", tables / work_s, "1/s");
  out.add("insts_per_req", static_cast<double>(r.counted) / tables, "insts");
  out.add("work_s", work_s, "s");
  out.add("setup_s", r.setup_s, "s");
  if (tracer == nullptr) return;
  add_table_layers(r, out);
  measure_rvv(out, *tracer);
  measure_par_epoch(out, *tracer);
  measure_tuner_hit(out, *tracer);
}

void measure_tables(const Options& opt, Outcome& out, Tracer& tracer) {
  Options once = opt;
  once.seconds = 0.0;  // a single pass
  add_table_layers(time_tables(once, out, &tracer), out);
}

}  // namespace perfbench
