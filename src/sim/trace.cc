#include "sim/trace.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/check.h"

namespace tilelink::sim {

namespace {

// Chrome trace wants microseconds; sim time is integral nanoseconds. Write
// ns/1000 with exactly three decimals so serialization is deterministic and
// locale-independent.
void WriteUs(std::ostream& os, TimeNs ns) {
  if (ns < 0) {
    os << '-';
    ns = -ns;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03d",
                static_cast<long long>(ns / 1000), static_cast<int>(ns % 1000));
  os << buf;
}

void WriteNumber(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

void WriteArgs(std::ostream& os, const std::vector<TraceArg>& args) {
  os << "{";
  bool first = true;
  for (const TraceArg& a : args) {
    if (!first) os << ",";
    first = false;
    os << '"';
    TraceRecorder::AppendEscaped(os, a.key);
    os << "\":";
    if (a.is_num) {
      WriteNumber(os, a.nval);
    } else {
      os << '"';
      TraceRecorder::AppendEscaped(os, a.sval);
      os << '"';
    }
  }
  os << "}";
}

}  // namespace

void TraceRecorder::SetProcessName(int pid, const std::string& name) {
  process_names_[pid] = name;
}

int TraceRecorder::Track(int pid, const std::string& name) {
  auto key = std::make_pair(pid, name);
  auto it = track_ids_.find(key);
  if (it != track_ids_.end()) return it->second;
  const int tid = ++next_tid_[pid];
  track_ids_.emplace(std::move(key), tid);
  return tid;
}

void TraceRecorder::AddSpan(int pid, int tid, const std::string& name,
                            TimeNs start, TimeNs end,
                            const std::string& category,
                            std::vector<TraceArg> args) {
  Event e;
  e.phase = Phase::kSpan;
  e.pid = pid;
  e.tid = tid;
  e.start = start;
  e.end = end;
  e.name = name;
  e.category = category;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void TraceRecorder::AddFlowStart(uint64_t id, int pid, int tid, TimeNs ts,
                                 const std::string& name) {
  Event e;
  e.phase = Phase::kFlowStart;
  e.pid = pid;
  e.tid = tid;
  e.start = e.end = ts;
  e.flow = id;
  e.name = name;
  e.category = "flow";
  events_.push_back(std::move(e));
}

void TraceRecorder::AddFlowFinish(uint64_t id, int pid, int tid, TimeNs ts,
                                  const std::string& name) {
  Event e;
  e.phase = Phase::kFlowFinish;
  e.pid = pid;
  e.tid = tid;
  e.start = e.end = ts;
  e.flow = id;
  e.name = name;
  e.category = "flow";
  events_.push_back(std::move(e));
}

void TraceRecorder::AddCounter(int pid, const std::string& track,
                               const std::string& series, TimeNs ts,
                               double value) {
  Event e;
  e.phase = Phase::kCounter;
  e.pid = pid;
  e.start = e.end = ts;
  e.value = value;
  e.name = track;
  e.category = series;
  events_.push_back(std::move(e));
}

void TraceRecorder::AddInstant(int pid, int tid, const std::string& name,
                               TimeNs ts, std::vector<TraceArg> args) {
  Event e;
  e.phase = Phase::kInstant;
  e.pid = pid;
  e.tid = tid;
  e.start = e.end = ts;
  e.name = name;
  e.category = "instant";
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void TraceRecorder::AppendEscaped(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\b':
        os << "\\b";
        break;
      case '\f':
        os << "\\f";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

void TraceRecorder::WriteJson(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  // Naming metadata first: process names, then interned thread tracks.
  for (const auto& [pid, name] : process_names_) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << pid
       << ",\"name\":\"process_name\",\"args\":{\"name\":\"";
    AppendEscaped(os, name);
    os << "\"}}";
  }
  for (const auto& [key, tid] : track_ids_) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << key.first << ",\"tid\":" << tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    AppendEscaped(os, key.second);
    os << "\"}}";
  }
  for (const Event& e : events_) {
    sep();
    switch (e.phase) {
      case Phase::kSpan:
        os << "{\"ph\":\"X\",\"pid\":" << e.pid << ",\"tid\":" << e.tid
           << ",\"name\":\"";
        AppendEscaped(os, e.name);
        os << "\",\"cat\":\"";
        AppendEscaped(os, e.category);
        os << "\",\"ts\":";
        WriteUs(os, e.start);
        os << ",\"dur\":";
        WriteUs(os, e.end - e.start);
        if (!e.args.empty()) {
          os << ",\"args\":";
          WriteArgs(os, e.args);
        }
        os << "}";
        break;
      case Phase::kFlowStart:
      case Phase::kFlowFinish:
        os << "{\"ph\":\"" << (e.phase == Phase::kFlowStart ? 's' : 'f')
           << "\"";
        if (e.phase == Phase::kFlowFinish) os << ",\"bp\":\"e\"";
        os << ",\"id\":" << e.flow << ",\"pid\":" << e.pid
           << ",\"tid\":" << e.tid << ",\"name\":\"";
        AppendEscaped(os, e.name);
        os << "\",\"cat\":\"flow\",\"ts\":";
        WriteUs(os, e.start);
        os << "}";
        break;
      case Phase::kCounter:
        os << "{\"ph\":\"C\",\"pid\":" << e.pid << ",\"name\":\"";
        AppendEscaped(os, e.name);
        os << "\",\"ts\":";
        WriteUs(os, e.start);
        os << ",\"args\":{\"";
        AppendEscaped(os, e.category);
        os << "\":";
        WriteNumber(os, e.value);
        os << "}}";
        break;
      case Phase::kInstant:
        os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << e.pid
           << ",\"tid\":" << e.tid << ",\"name\":\"";
        AppendEscaped(os, e.name);
        os << "\",\"ts\":";
        WriteUs(os, e.start);
        if (!e.args.empty()) {
          os << ",\"args\":";
          WriteArgs(os, e.args);
        }
        os << "}";
        break;
    }
  }
  os << "]}";
}

std::string TraceRecorder::ToJson() const {
  std::ostringstream os;
  WriteJson(os);
  return os.str();
}

void TraceRecorder::Save(const std::string& path) const {
  std::ofstream out(path);
  TL_CHECK_MSG(out.good(), "cannot open trace file " << path);
  WriteJson(out);  // streams: the full JSON string is never materialized
  out.flush();
  TL_CHECK_MSG(out.good(), "short write on trace file " << path);
}

// ---- JSON validity ------------------------------------------------------

namespace {

struct JsonParser {
  const std::string& s;
  size_t i = 0;
  std::string* err;

  bool Fail(const std::string& what) {
    if (err != nullptr && err->empty()) {
      *err = what + " at byte " + std::to_string(i);
    }
    return false;
  }
  void SkipWs() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                            s[i] == '\r')) {
      ++i;
    }
  }
  bool Literal(const char* lit) {
    const size_t n = std::char_traits<char>::length(lit);
    if (s.compare(i, n, lit) != 0) return Fail("bad literal");
    i += n;
    return true;
  }
  bool String() {
    if (i >= s.size() || s[i] != '"') return Fail("expected string");
    ++i;
    while (i < s.size()) {
      const unsigned char c = static_cast<unsigned char>(s[i]);
      if (c == '"') {
        ++i;
        return true;
      }
      if (c < 0x20) return Fail("raw control char in string");
      if (c == '\\') {
        ++i;
        if (i >= s.size()) return Fail("truncated escape");
        const char e = s[i];
        if (e == '"' || e == '\\' || e == '/' || e == 'b' || e == 'f' ||
            e == 'n' || e == 'r' || e == 't') {
          ++i;
        } else if (e == 'u') {
          ++i;
          for (int k = 0; k < 4; ++k, ++i) {
            if (i >= s.size() || !std::isxdigit(static_cast<unsigned char>(s[i])))
              return Fail("bad \\u escape");
          }
        } else {
          return Fail("bad escape");
        }
      } else {
        ++i;
      }
    }
    return Fail("unterminated string");
  }
  bool Number() {
    if (i < s.size() && s[i] == '-') ++i;
    if (i >= s.size() || !std::isdigit(static_cast<unsigned char>(s[i])))
      return Fail("bad number");
    if (s[i] == '0') {
      ++i;
    } else {
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])))
        ++i;
    }
    if (i < s.size() && s[i] == '.') {
      ++i;
      if (i >= s.size() || !std::isdigit(static_cast<unsigned char>(s[i])))
        return Fail("bad fraction");
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])))
        ++i;
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
      ++i;
      if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
      if (i >= s.size() || !std::isdigit(static_cast<unsigned char>(s[i])))
        return Fail("bad exponent");
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])))
        ++i;
    }
    return true;
  }
  bool Value(int depth) {
    if (depth > 256) return Fail("nesting too deep");
    SkipWs();
    if (i >= s.size()) return Fail("truncated value");
    switch (s[i]) {
      case '{':
        return Object(depth);
      case '[':
        return Array(depth);
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object(int depth) {
    ++i;  // '{'
    SkipWs();
    if (i < s.size() && s[i] == '}') {
      ++i;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (i >= s.size() || s[i] != ':') return Fail("expected ':'");
      ++i;
      if (!Value(depth + 1)) return false;
      SkipWs();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      if (i < s.size() && s[i] == '}') {
        ++i;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }
  bool Array(int depth) {
    ++i;  // '['
    SkipWs();
    if (i < s.size() && s[i] == ']') {
      ++i;
      return true;
    }
    while (true) {
      if (!Value(depth + 1)) return false;
      SkipWs();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      if (i < s.size() && s[i] == ']') {
        ++i;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }
};

}  // namespace

bool TraceRecorder::ValidateJson(const std::string& text, std::string* error) {
  if (error != nullptr) error->clear();
  JsonParser p{text, 0, error};
  if (!p.Value(0)) return false;
  p.SkipWs();
  if (p.i != text.size()) return p.Fail("trailing bytes");
  return true;
}

}  // namespace tilelink::sim
