#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {
namespace {

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

Spans::Scope::Scope(Spans* spans, std::string name, std::string detail)
    : spans_(spans), start_(NowS()) {
  if (spans_ != nullptr && spans_->enabled_) {
    Span s;
    s.name = std::move(name);
    s.detail = std::move(detail);
    s.start = start_;
    s.parent = spans_->open_.empty() ? -1 : spans_->open_.back();
    index_ = static_cast<int>(spans_->spans_.size());
    spans_->spans_.push_back(std::move(s));
    spans_->open_.push_back(index_);
  }
}

double Spans::Scope::Stop() {
  if (elapsed_ >= 0) return elapsed_;
  const double end = NowS();
  elapsed_ = end - start_;
  if (index_ >= 0) {
    spans_->spans_[index_].end = end;
    // Scopes are strictly nested, so this span is the innermost open one.
    if (!spans_->open_.empty() && spans_->open_.back() == index_) {
      spans_->open_.pop_back();
    }
  }
  return elapsed_;
}

bool Spans::WriteChromeTrace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char times[96];
    std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                  (s.start - t0) * 1e6, (s.end - s.start) * 1e6);
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << Escape(s.name)
       << "\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << times
       << ",\"args\":{\"detail\":\"" << Escape(s.detail)
       << "\",\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

std::string Spans::SelfTimeTable() const {
  struct Row {
    long calls = 0;
    double total = 0;
    double self = 0;
  };
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_time[s.parent] += s.end - s.start;
  }
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Row& r = rows[s.name];
    ++r.calls;
    r.total += s.end - s.start;
    r.self += s.end - s.start - child_time[i];
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self > b.second.self;
  });
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-28s %8s %12s %12s\n", "span", "calls",
                "total_s", "self_s");
  out += line;
  for (const auto& [name, r] : sorted) {
    std::snprintf(line, sizeof(line), "%-28s %8ld %12.4f %12.4f\n",
                  name.c_str(), r.calls, r.total, r.self);
    out += line;
  }
  return out;
}

}  // namespace perfbench
