#include "tracer.h"

#include <fstream>

#include "util/json_writer.h"

namespace perfbench {

int Tracer::Begin(std::string name, std::uint64_t request, bool replayed) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.replayed = replayed;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index) {
  spans_[index].end_ns = NowNs();
  // Spans close in LIFO order: ScopedSpan is the only caller.
  open_.pop_back();
}

std::vector<double> Tracer::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].seconds();
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) self[span.parent] -= span.seconds();
  }
  return self;
}

doppler::Status Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return doppler::UnavailableError("cannot write " + path);
  const std::vector<double> self = SelfSeconds();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    doppler::JsonWriter json;
    json.BeginObject();
    json.Key("id").Int(static_cast<long long>(i));
    json.Key("name").String(span.name);
    json.Key("parent").Int(span.parent);
    json.Key("request").Int(static_cast<long long>(span.request));
    json.Key("start_ns").Int(span.start_ns);
    json.Key("end_ns").Int(span.end_ns);
    json.Key("self_s").Number(self[i]);
    json.Key("replayed").Bool(span.replayed);
    json.Key("failed").Bool(span.failed);
    json.Key("units").Number(span.units);
    json.Key("value").Number(span.value);
    json.EndObject();
    out << json.str() << "\n";
  }
  out.flush();
  return out ? doppler::OkStatus()
             : doppler::UnavailableError("short write to " + path);
}

}  // namespace perfbench
