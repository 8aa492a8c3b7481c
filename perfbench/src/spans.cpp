#include "spans.hpp"

#include <algorithm>
#include <utility>

#include "obs/json.hpp"

namespace perfbench {

std::uint64_t SpanRecorder::new_trace() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++next_trace_;
}

std::uint64_t SpanRecorder::open(std::string_view name, std::uint64_t parent,
                                 std::uint64_t trace) {
  const double t = now();
  return add(name, parent, trace, t, t);
}

void SpanRecorder::close(std::uint64_t id) {
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].end_s = t;
}

std::uint64_t SpanRecorder::add(std::string_view name, std::uint64_t parent,
                                std::uint64_t trace, double start_s,
                                double end_s) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.trace = trace;
  s.name = std::string(name);
  s.start_s = start_s;
  s.end_s = end_s;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanRecorder::write_chrome_json(std::ostream& os) const {
  const std::vector<Span> all = spans();
  os << "[";
  bool first = true;
  for (const Span& s : all) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"name\":\"" << fdiam::obs::json_escape(s.name)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.trace
       << ",\"ts\":" << s.start_s * 1e6 << ",\"dur\":" << s.duration() * 1e6
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"trace\":" << s.trace << "}}";
  }
  os << "\n]\n";
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  // Children's intervals clipped to the parent, per parent.
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0 || s.parent > spans.size()) continue;
    const Span& p = spans[s.parent - 1];
    const double a = std::max(s.start_s, p.start_s);
    const double b = std::min(s.end_s, p.end_s);
    if (b > a) kids[s.parent - 1].emplace_back(a, b);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_a = 0.0;
    double cur_b = 0.0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    out[i] = std::max(0.0, spans[i].duration() - covered);
  }
  return out;
}

std::map<std::string, double> self_time_by_name(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

}  // namespace perfbench
