#include "trace.hpp"

#include <cstdio>

namespace perfbench {
namespace {

/// Innermost open Scope on this thread (index into the tracer's spans).
thread_local std::int64_t current_parent = -1;

}  // namespace

std::int64_t Tracer::add(std::string name, Clock::time_point start,
                         Clock::time_point end, std::int64_t parent,
                         std::uint64_t request) {
  if (!enabled_) {
    return -1;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), to_us(start), to_us(end), parent,
                        request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::uint64_t request)
    : tracer_(tracer) {
  if (!tracer_.enabled_) {
    return;
  }
  const Clock::time_point now = Clock::now();
  index_ = tracer_.add(std::move(name), now, now, current_parent, request);
  saved_parent_ = current_parent;
  current_parent = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) {
    return;
  }
  const double end = tracer_.to_us(Clock::now());
  {
    std::lock_guard<std::mutex> lock(tracer_.mutex_);
    tracer_.spans_[static_cast<std::size_t>(index_)].end_us = end;
  }
  current_parent = saved_parent_;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fputs("{\"traceEvents\":[\n", out);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    // Requests get their own track so concurrent requests do not overlap.
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%lld,\"request\":%llu}}",
                 i == 0 ? "" : ",\n", s.name.c_str(), layer_of(s.name).c_str(),
                 static_cast<unsigned long long>(s.request), s.start_us,
                 s.end_us - s.start_us, i, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
