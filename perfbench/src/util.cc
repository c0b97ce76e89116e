#include "util.h"

#include <malloc.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench {
namespace {

long status_kb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  long kb = 0;
  const std::size_t n = std::strlen(field);
  while (std::fgets(line, sizeof(line), f)) {
    if (std::strncmp(line, field, n) == 0) {
      kb = std::strtol(line + n, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

}  // namespace

long current_rss_kb() { return status_kb("VmRSS:"); }
long peak_rss_kb() { return status_kb("VmHWM:"); }

void reset_peak_rss() {
  // "5" resets the peak resident set size to the current one (proc(5)).
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (!f) throw std::runtime_error("cannot reset peak RSS via clear_refs");
  std::fputs("5", f);
  std::fclose(f);
}

void release_free_heap() { malloc_trim(0); }

double Tracer::total_ms(const std::string& name, int parent) const {
  double ms = 0;
  for (const Span& s : spans_) {
    if (name == s.name && (parent == -2 || s.parent == parent)) {
      ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  return ms;
}

std::size_t Tracer::count(const std::string& name, int parent) const {
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (name == s.name && (parent == -2 || s.parent == parent)) ++n;
  }
  return n;
}

double Tracer::children_ms(int idx) const {
  double ms = 0;
  for (const Span& s : spans_) {
    if (s.parent == idx) ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return ms;
}

void Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + path);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"id\":%lld}}",
                 i ? ",\n" : "", s.name,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<long long>(s.id));
  }
  std::fputs("\n]}\n", f);
  std::fclose(f);
}

}  // namespace perfbench
