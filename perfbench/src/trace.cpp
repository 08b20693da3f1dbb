#include "trace.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>

namespace perfbench {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

}  // namespace

std::string_view Span::module() const {
  const std::string_view view(name);
  return view.substr(0, view.find('.'));
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, std::string_view name,
                     std::uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) {
    return;
  }
  Span span;
  span.name = std::string(name);
  span.id = static_cast<std::uint32_t>(tracer_->spans_.size() + 1);
  if (!tracer_->open_.empty()) {
    const Span& parent = tracer_->spans_[tracer_->open_.back()];
    span.parent = parent.id;
    span.request = request != 0 ? request : parent.request;
  } else {
    span.request = request;
  }
  index_ = tracer_->spans_.size();
  tracer_->open_.push_back(index_);
  span.start_ns = tracer_->now_ns();
  tracer_->spans_.push_back(std::move(span));
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) {
    return;
  }
  tracer_->spans_[index_].end_ns = tracer_->now_ns();
  tracer_->open_.pop_back();
}

void Tracer::record_async(std::string_view name, Clock::time_point start,
                          Clock::time_point end, std::uint64_t request,
                          std::uint32_t lane) {
  if (!enabled_) {
    return;
  }
  Span span;
  span.name = std::string(name);
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.request = request;
  span.lane = lane;
  span.async = true;
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
          .count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
          .count();
  spans_.push_back(std::move(span));
}

double Tracer::total_ms(std::string_view name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) {
      total += span.ms();
    }
  }
  return total;
}

std::map<std::string, double> Tracer::self_ms_by_module() const {
  std::vector<double> child_ms(spans_.size() + 1, 0.0);
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      child_ms[span.parent] += span.ms();
    }
  }
  std::map<std::string, double> self;
  for (const Span& span : spans_) {
    self[std::string(span.module())] += span.ms() - child_ms[span.id];
  }
  return self;
}

void Tracer::write_chrome_json(const std::string& path,
                               const std::string& other_data) const {
  const std::unique_ptr<std::FILE, FileCloser> file(
      std::fopen(path.c_str(), "w"));
  if (!file) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  std::FILE* f = file.get();
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s,\n",
               other_data.c_str());
  std::fprintf(f,
               "\"traceEvents\": [\n"
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": 0, \"args\": {\"name\": \"rainbow_perfbench\"}}");
  for (const Span& s : spans_) {
    const std::string module(s.module());
    const double ts_us = static_cast<double>(s.start_ns) * 1e-3;
    const double end_us = static_cast<double>(s.end_ns) * 1e-3;
    if (s.async) {
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"b\", "
                   "\"id\": %u, \"ts\": %.3f, \"pid\": 1, \"tid\": %u, "
                   "\"args\": {\"span\": %u, \"parent\": %u, \"request\": "
                   "%llu}}",
                   s.name.c_str(), module.c_str(), s.id, ts_us, s.lane, s.id,
                   s.parent, static_cast<unsigned long long>(s.request));
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"e\", "
                   "\"id\": %u, \"ts\": %.3f, \"pid\": 1, \"tid\": %u}",
                   s.name.c_str(), module.c_str(), s.id, end_us, s.lane);
    } else {
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                   "\"args\": {\"span\": %u, \"parent\": %u, \"request\": "
                   "%llu}}",
                   s.name.c_str(), module.c_str(), ts_us, end_us - ts_us,
                   s.lane, s.id, s.parent,
                   static_cast<unsigned long long>(s.request));
    }
  }
  std::fprintf(f, "\n]}\n");
  if (std::ferror(f) != 0) {
    throw std::runtime_error("error writing trace file " + path);
  }
}

}  // namespace perfbench
