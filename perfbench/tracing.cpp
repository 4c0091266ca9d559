#include "tracing.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

namespace perfbench {

std::int64_t Tracer::begin(std::string name, std::int64_t request) {
  const auto id = static_cast<std::int64_t>(spans_.size());
  const std::int64_t t = now_ns();
  spans_.push_back(Span{std::move(name), t, t, current(), request});
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int64_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::int64_t Tracer::record(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                            std::int64_t parent, std::int64_t request, bool async) {
  const auto id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, request, async});
  return id;
}

std::map<std::string, std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.async || s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size()) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::map<std::string, std::int64_t> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].async) continue;
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (run_hi < run_lo || lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[spans[i].name] += (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string category(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

void emit(std::ostringstream& os, bool& first, const std::string& body) {
  os << (first ? "\n" : ",\n") << body;
  first = false;
}

std::string us(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1000.0);
  return buf;
}

}  // namespace

std::string chrome_trace_json(const std::vector<Span>& spans) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  emit(os, first,
       "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
       "\"args\":{\"name\":\"perfbench driver\"}}");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string head = "{\"name\":\"" + json_escape(s.name) + "\",\"cat\":\"" +
                             json_escape(category(s.name)) + "\",\"pid\":1,\"tid\":1,";
    const std::string args = "\"args\":{\"span\":" + std::to_string(i) +
                             ",\"parent\":" + std::to_string(s.parent) +
                             ",\"request\":" + std::to_string(s.request) + "}}";
    if (!s.async) {
      emit(os, first, head + "\"ph\":\"X\",\"ts\":" + us(s.start_ns) +
                          ",\"dur\":" + us(s.end_ns - s.start_ns) + "," + args);
    } else {
      const std::string id = "\"id\":" + std::to_string(s.request) + ",";
      emit(os, first, head + "\"ph\":\"b\"," + id + "\"ts\":" + us(s.start_ns) + "," + args);
      emit(os, first, head + "\"ph\":\"e\"," + id + "\"ts\":" + us(s.end_ns) + ",\"args\":{}}");
    }
  }
  os << "\n]}\n";
  return os.str();
}

bool write_chrome_trace(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << chrome_trace_json(spans);
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench
