#include "obs/trace.hpp"

namespace maxmin::obs {

std::optional<TraceLevel> parseTraceLevel(std::string_view name) {
  if (name == "period") return TraceLevel::kPeriod;
  if (name == "event") return TraceLevel::kEvent;
  return std::nullopt;
}

std::unique_ptr<TraceSink> TraceSink::openFile(const std::string& path,
                                               TraceLevel level) {
  auto file = std::make_unique<std::ofstream>(path);
  if (!*file) return nullptr;
  return std::unique_ptr<TraceSink>{new TraceSink{std::move(file), level}};
}

}  // namespace maxmin::obs
