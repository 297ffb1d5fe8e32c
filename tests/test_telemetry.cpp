// Unit + integration tests for the epoch telemetry layer: histogram
// bucket/percentile math, span recording (virtual vs wall time), exporter
// well-formedness (parsed back with a minimal JSON reader), concurrency
// under the thread pool, the zero-allocation disabled path, and the
// Logger hardening (level env parsing, sink, thread safety).
#include "checkpoint/checkpointer.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "core/crimes.h"
#include "detect/canary_scan.h"
#include "telemetry/export.h"
#include "test_helpers.h"
#include "workload/overflow.h"
#include "workload/parsec.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

// --- Global allocation counter (for the disabled-path test) ----------------
// Replacing operator new in the test binary counts every heap allocation
// made anywhere in the process; the telemetry-disabled test asserts the
// count does not move across a burst of no-op trace/metric calls.

// Non-static: test_observability.cpp reuses the counter for the flight
// recorder / SLO monitor no-allocation bars.
std::atomic<std::uint64_t> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace crimes {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::HistogramSnapshot;
using telemetry::MetricsRegistry;
using telemetry::StringSink;
using telemetry::TraceRecorder;
using telemetry::TraceSpan;

// --- Minimal JSON reader (tests only) ---------------------------------------
// Enough of RFC 8259 to parse back what the exporters emit: objects,
// arrays, strings with escapes, numbers, booleans, null.

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  // Returns false (and sets error_) on malformed input or trailing junk.
  bool parse(JsonValue& out) {
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return true;
  }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  bool fail(const std::string& what) {
    error_ = what + " at offset " + std::to_string(pos_);
    return false;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }
  bool string(std::string& out) {
    if (text_[pos_] != '"') return fail("expected string");
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return fail("dangling escape");
      switch (text_[pos_++]) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("short \\u escape");
          // The exporters only escape control characters; decode as a
          // single byte, which covers that range.
          const std::string hex(text_.substr(pos_, 4));
          out.push_back(static_cast<char>(
              std::strtoul(hex.c_str(), nullptr, 16)));
          pos_ += 4;
          break;
        }
        default: return fail("unknown escape");
      }
    }
    if (pos_ >= text_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }
  bool value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end");
    const char c = text_[pos_];
    if (c == '{') {
      out.type = JsonValue::Type::Object;
      ++pos_;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '}') { ++pos_; return true; }
      while (true) {
        skip_ws();
        std::string key;
        if (!string(key)) return false;
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return fail("expected ':'");
        }
        ++pos_;
        JsonValue member;
        if (!value(member)) return false;
        out.object.emplace_back(std::move(key), std::move(member));
        skip_ws();
        if (pos_ >= text_.size()) return fail("unterminated object");
        if (text_[pos_] == ',') { ++pos_; continue; }
        if (text_[pos_] == '}') { ++pos_; return true; }
        return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      out.type = JsonValue::Type::Array;
      ++pos_;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ']') { ++pos_; return true; }
      while (true) {
        JsonValue element;
        if (!value(element)) return false;
        out.array.push_back(std::move(element));
        skip_ws();
        if (pos_ >= text_.size()) return fail("unterminated array");
        if (text_[pos_] == ',') { ++pos_; continue; }
        if (text_[pos_] == ']') { ++pos_; return true; }
        return fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out.type = JsonValue::Type::String;
      return string(out.str);
    }
    if (c == 't') { out.type = JsonValue::Type::Bool; out.boolean = true;
                    return literal("true"); }
    if (c == 'f') { out.type = JsonValue::Type::Bool; out.boolean = false;
                    return literal("false"); }
    if (c == 'n') { out.type = JsonValue::Type::Null;
                    return literal("null"); }
    // Number.
    const std::size_t start = pos_;
    if (text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected value");
    out.type = JsonValue::Type::Number;
    out.number = std::strtod(std::string(text_.substr(start, pos_ - start))
                                 .c_str(),
                             nullptr);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

JsonValue parse_json_or_die(const std::string& text) {
  JsonValue doc;
  JsonReader reader(text);
  EXPECT_TRUE(reader.parse(doc)) << reader.error() << "\ninput: " << text;
  return doc;
}

// --- Histogram math ----------------------------------------------------------

TEST(HistogramMath, BucketBoundaries) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<std::uint64_t>::max()),
            telemetry::kHistogramBuckets - 1);

  EXPECT_EQ(Histogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper_bound(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper_bound(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper_bound(3), 7u);
  EXPECT_EQ(Histogram::bucket_upper_bound(11), 2047u);
  EXPECT_EQ(Histogram::bucket_upper_bound(telemetry::kHistogramBuckets - 1),
            std::numeric_limits<std::uint64_t>::max());

  // Every bucket's upper bound maps back into that bucket.
  for (std::size_t b = 0; b < telemetry::kHistogramBuckets - 1; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_upper_bound(b)), b);
  }
}

TEST(HistogramMath, CountSumMaxMeanAreExact) {
  Histogram h;
  h.record(10);
  h.record(20);
  h.record(30);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 60u);
  EXPECT_EQ(h.max(), 30u);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(HistogramMath, PercentilesOnKnownDistribution) {
  Histogram h;
  // 90 small values in bucket [64,128), 10 large in [1024,2048).
  for (int i = 0; i < 90; ++i) h.record(100);
  for (int i = 0; i < 10; ++i) h.record(1500);
  const HistogramSnapshot s = h.snapshot();
  // p50 lands in the small bucket: upper bound 127.
  EXPECT_EQ(s.p50(), 127u);
  // p95/p99 land in the large bucket, clamped to the observed max.
  EXPECT_EQ(s.p95(), 1500u);
  EXPECT_EQ(s.p99(), 1500u);
  EXPECT_EQ(s.max, 1500u);
}

TEST(HistogramMath, SingleValueClampsToExactMax) {
  Histogram h;
  h.record(1000);  // bucket [512,1024) whose upper bound is 1023
  EXPECT_EQ(h.p50(), 1000u);
  EXPECT_EQ(h.p99(), 1000u);
}

TEST(HistogramMath, EmptyAndZeroOnly) {
  Histogram h;
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_EQ(h.p99(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.record(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

// --- Registry ---------------------------------------------------------------

TEST(MetricsRegistryTest, LookupReturnsStableObjects) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("epochs");
  c1.add(3);
  EXPECT_EQ(reg.counter("epochs").value(), 3u);
  EXPECT_EQ(&reg.counter("epochs"), &c1);

  reg.gauge("interval").set(42.5);
  EXPECT_DOUBLE_EQ(reg.gauge("interval").value(), 42.5);

  reg.histogram("pause").record(7);
  EXPECT_EQ(reg.histogram("pause").count(), 1u);
}

TEST(MetricsRegistryTest, SnapshotIsNameSortedAndComplete) {
  MetricsRegistry reg;
  reg.counter("b.count").add(2);
  reg.counter("a.count").add(1);
  reg.gauge("z.gauge").set(9.0);
  reg.histogram("m.hist").record(5);

  const MetricsRegistry::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.count");
  EXPECT_EQ(snap.counters[0].second, 1u);
  EXPECT_EQ(snap.counters[1].first, "b.count");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 9.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);
}

TEST(MetricsConcurrency, ExactTotalsUnderThreadPool) {
  MetricsRegistry reg;
  Counter& counter = reg.counter("hits");
  Histogram& hist = reg.histogram("latency");

  ThreadPool pool(4);
  constexpr int kTasks = 8;
  constexpr int kPerTask = 10000;
  std::vector<std::future<void>> done;
  done.reserve(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    done.push_back(pool.submit([&counter, &hist] {
      for (int i = 0; i < kPerTask; ++i) {
        counter.add();
        hist.record(static_cast<std::uint64_t>(i));
      }
    }));
  }
  for (auto& f : done) f.get();

  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kTasks) * kPerTask);
  const HistogramSnapshot s = hist.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kTasks) * kPerTask);
  EXPECT_EQ(s.max, static_cast<std::uint64_t>(kPerTask - 1));
  std::uint64_t bucket_total = 0;
  for (const auto b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
}

// --- Trace recorder ---------------------------------------------------------

TEST(Trace, ScopedSpansCaptureVirtualAndWallTime) {
  SimClock clock;
  TraceRecorder rec(clock);

  const std::size_t outer = rec.begin_span("epoch");
  clock.advance(millis(5));
  const std::size_t inner = rec.begin_span("commit");
  clock.advance(millis(2));
  rec.end_span(inner);
  rec.end_span(outer);

  ASSERT_EQ(rec.span_count(), 2u);
  EXPECT_EQ(rec.open_spans(), 0u);
  const std::vector<TraceSpan> spans = rec.spans();
  const TraceSpan& e = spans[0];
  const TraceSpan& c = spans[1];
  EXPECT_EQ(e.name, "epoch");
  EXPECT_EQ(e.virt_start, Nanos{0});
  EXPECT_EQ(e.virt_duration(), millis(7));
  EXPECT_EQ(e.depth, 0u);
  EXPECT_EQ(c.name, "commit");
  EXPECT_EQ(c.virt_start, millis(5));
  EXPECT_EQ(c.virt_duration(), millis(2));
  EXPECT_EQ(c.depth, 1u);
  // Wall time is real elapsed time: non-negative and properly nested.
  EXPECT_GE(e.wall_duration().count(), 0);
  EXPECT_LE(e.wall_start, c.wall_start);
  EXPECT_GE(e.wall_end, c.wall_end);
}

TEST(Trace, ExplicitSpanPlacesPrecomputedInterval) {
  SimClock clock;
  TraceRecorder rec(clock);
  rec.add_span("copy", millis(3), millis(2), /*tid=*/2, /*wall=*/Nanos{500},
               /*depth=*/1);
  ASSERT_EQ(rec.span_count(), 1u);
  EXPECT_EQ(rec.open_spans(), 0u);
  const TraceSpan s = rec.spans()[0];
  EXPECT_EQ(s.name, "copy");
  EXPECT_EQ(s.virt_start, millis(3));
  EXPECT_EQ(s.virt_end, millis(5));
  EXPECT_EQ(s.tid, 2u);
  EXPECT_EQ(s.wall_duration(), Nanos{500});
  EXPECT_EQ(s.depth, 1u);
}

TEST(Trace, ClearResetsRecorder) {
  SimClock clock;
  TraceRecorder rec(clock);
  rec.add_span("x", Nanos{0}, Nanos{1});
  rec.clear();
  EXPECT_EQ(rec.span_count(), 0u);
  EXPECT_EQ(rec.open_spans(), 0u);
}

TEST(Trace, NullRecorderScopeIsANoOp) {
  TraceRecorder* rec = nullptr;
  CRIMES_TRACE_SPAN(rec, "epoch");  // must not crash
  SUCCEED();
}

TEST(Trace, DisabledPathDoesNotAllocate) {
  TraceRecorder* rec = nullptr;
  Counter counter;
  Histogram hist;
  const std::uint64_t before =
      g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    CRIMES_TRACE_SPAN(rec, "epoch");
    counter.add();
    hist.record(static_cast<std::uint64_t>(i));
  }
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after)
      << "telemetry-disabled per-epoch path must not allocate";
}

// --- Exporters --------------------------------------------------------------

TEST(Export, ChromeTraceParsesBackWithAllSpans) {
  SimClock clock;
  TraceRecorder rec(clock);
  const std::size_t epoch = rec.begin_span("epoch");
  clock.advance(millis(10));
  rec.end_span(epoch);
  rec.add_span("suspend", Nanos{0}, millis(1));
  rec.add_span("scan:canary-scan", millis(1), millis(2), /*tid=*/1,
               Nanos{12345});
  rec.add_span("weird\"name\\with\ncontrols", millis(3), millis(1));

  StringSink sink;
  telemetry::export_chrome_trace(rec, sink);
  const JsonValue doc = parse_json_or_die(sink.str());

  ASSERT_EQ(doc.type, JsonValue::Type::Object);
  const JsonValue* unit = doc.find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->str, "ms");
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, JsonValue::Type::Array);

  std::size_t complete = 0, metadata = 0;
  bool saw_scan = false, saw_weird = false;
  for (const JsonValue& ev : events->array) {
    ASSERT_EQ(ev.type, JsonValue::Type::Object);
    const JsonValue* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "M") { ++metadata; continue; }
    ASSERT_EQ(ph->str, "X");
    ++complete;
    const JsonValue* name = ev.find("name");
    const JsonValue* ts = ev.find("ts");
    const JsonValue* dur = ev.find("dur");
    const JsonValue* tid = ev.find("tid");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ts, nullptr);
    ASSERT_NE(dur, nullptr);
    ASSERT_NE(tid, nullptr);
    EXPECT_GE(ts->number, 0.0);
    EXPECT_GE(dur->number, 0.0);
    if (name->str == "scan:canary-scan") {
      saw_scan = true;
      EXPECT_DOUBLE_EQ(ts->number, 1000.0);   // virtual µs
      EXPECT_DOUBLE_EQ(dur->number, 2000.0);
      EXPECT_DOUBLE_EQ(tid->number, 1.0);
      const JsonValue* args = ev.find("args");
      ASSERT_NE(args, nullptr);
      const JsonValue* wall = args->find("wall_us");
      ASSERT_NE(wall, nullptr);
      EXPECT_NEAR(wall->number, 12.345, 1e-6);
    }
    if (name->str == "weird\"name\\with\ncontrols") saw_weird = true;
  }
  EXPECT_EQ(complete, rec.span_count());
  EXPECT_GE(metadata, 2u);  // process_name + at least one thread_name
  EXPECT_TRUE(saw_scan);
  EXPECT_TRUE(saw_weird) << "json escaping must round-trip";
}

TEST(Export, MetricsJsonlParsesBackLineByLine) {
  MetricsRegistry reg;
  reg.counter("checkpoint.epochs").add(10);
  reg.gauge("control.interval_ms").set(50.0);
  Histogram& h = reg.histogram("phase.copy");
  for (int i = 0; i < 100; ++i) h.record(1000);

  StringSink sink;
  telemetry::export_metrics_jsonl(reg, sink);
  const std::string& text = sink.str();
  ASSERT_FALSE(text.empty());

  std::size_t lines = 0;
  bool saw_histogram = false;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    ++lines;
    const JsonValue obj = parse_json_or_die(line);
    ASSERT_EQ(obj.type, JsonValue::Type::Object);
    ASSERT_NE(obj.find("name"), nullptr);
    ASSERT_NE(obj.find("type"), nullptr);
    if (obj.find("type")->str == "histogram" &&
        obj.find("name")->str == "phase.copy") {
      saw_histogram = true;
      EXPECT_DOUBLE_EQ(obj.find("count")->number, 100.0);
      EXPECT_DOUBLE_EQ(obj.find("max")->number, 1000.0);
      ASSERT_NE(obj.find("p95"), nullptr);
      ASSERT_NE(obj.find("mean"), nullptr);
    }
  }
  EXPECT_EQ(lines, 3u);
  EXPECT_TRUE(saw_histogram);
}

TEST(Export, PhaseTableListsPhaseHistograms) {
  MetricsRegistry reg;
  reg.histogram("phase.suspend").record(1'000'000);  // 1 ms
  reg.histogram("phase.copy").record(2'000'000);
  reg.counter("checkpoint.epochs").add(1);  // not a phase: excluded

  const std::string table = telemetry::format_phase_table(reg);
  EXPECT_NE(table.find("suspend"), std::string::npos);
  EXPECT_NE(table.find("copy"), std::string::npos);
  EXPECT_NE(table.find("p95"), std::string::npos);
  EXPECT_NE(table.find("p99"), std::string::npos);
  EXPECT_EQ(table.find("checkpoint.epochs"), std::string::npos);
}

// --- End-to-end through the Crimes core -------------------------------------

TEST(TelemetryE2E, SynchronousRunEmitsEpochAndPhaseSpans) {
  testing::TestGuest guest;
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(50));
  config.mode = SafetyMode::Synchronous;
  config.telemetry = true;
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  crimes.add_module(std::make_unique<CanaryScanModule>());

  ParsecProfile profile = ParsecProfile::by_name("raytrace");
  profile.working_set_pages = 256;
  profile.touches_per_ms = 4.0;
  profile.duration_ms = 500.0;
  ParsecWorkload app(*guest.kernel, profile);
  crimes.set_workload(&app);
  crimes.initialize();

  const RunSummary summary = crimes.run(millis(1000));
  EXPECT_FALSE(summary.attack_detected);
  ASSERT_EQ(summary.epochs, 10u);

  telemetry::Telemetry* tel = crimes.telemetry();
  ASSERT_NE(tel, nullptr);
  EXPECT_EQ(tel->trace.open_spans(), 0u);

  std::size_t epoch_spans = 0;
  Nanos covered{0};
  for (const TraceSpan& s : tel->trace.spans()) {
    if (s.name == "epoch") ++epoch_spans;
    if (s.name == "suspend" || s.name == "dirty_scan" || s.name == "audit" ||
        s.name == "map" || s.name == "copy" || s.name == "resume") {
      covered += s.virt_duration();
    }
  }
  EXPECT_EQ(epoch_spans, summary.epochs);
  // Acceptance bar: phase spans cover >= 95% of the measured pause.
  ASSERT_GT(summary.total_pause.count(), 0);
  EXPECT_GE(static_cast<double>(covered.count()),
            0.95 * static_cast<double>(summary.total_pause.count()));

  EXPECT_EQ(tel->metrics.counter("checkpoint.epochs").value(),
            summary.epochs);
  EXPECT_EQ(tel->metrics.histogram("phase.pause_total").count(),
            summary.epochs);
  EXPECT_EQ(summary.pause_histogram.count, summary.epochs);
  EXPECT_GT(summary.max_pause.count(), 0);
  EXPECT_GE(summary.max_pause, millis(0));
  EXPECT_GE(summary.p99_pause_ms(), summary.p95_pause_ms() / 2.0);

  // The trace exports to well-formed JSON end to end.
  StringSink sink;
  telemetry::export_chrome_trace(tel->trace, sink);
  (void)parse_json_or_die(sink.str());
}

TEST(TelemetryE2E, DisabledTelemetryStillFillsPauseHistogram) {
  testing::TestGuest guest;
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(50));
  config.telemetry = false;  // default, spelled out
  Crimes crimes(guest.hypervisor, *guest.kernel, config);

  ParsecProfile profile = ParsecProfile::by_name("raytrace");
  profile.working_set_pages = 128;
  profile.touches_per_ms = 4.0;
  profile.duration_ms = 250.0;
  ParsecWorkload app(*guest.kernel, profile);
  crimes.set_workload(&app);
  crimes.initialize();

  const RunSummary summary = crimes.run(millis(1000));
  EXPECT_EQ(crimes.telemetry(), nullptr);
  EXPECT_EQ(summary.pause_histogram.count, summary.epochs);
  EXPECT_EQ(summary.max_pause.count(),
            static_cast<std::int64_t>(summary.pause_histogram.max));
}

TEST(TelemetryE2E, AttackRunEmitsResponseSpans) {
  testing::TestGuest guest;
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(50));
  config.telemetry = true;
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  crimes.add_module(std::make_unique<CanaryScanModule>());

  OverflowScript script;
  script.attack_at = millis(125);
  OverflowWorkload app(*guest.kernel, script);
  crimes.set_workload(&app);
  crimes.initialize();

  const RunSummary summary = crimes.run(millis(1000));
  ASSERT_TRUE(summary.attack_detected);

  telemetry::Telemetry* tel = crimes.telemetry();
  ASSERT_NE(tel, nullptr);
  bool saw_rollback = false, saw_replay = false, saw_forensics = false;
  for (const TraceSpan& s : tel->trace.spans()) {
    if (s.name == "rollback") saw_rollback = true;
    if (s.name == "replay") saw_replay = true;
    if (s.name == "forensics") saw_forensics = true;
  }
  EXPECT_TRUE(saw_rollback);
  EXPECT_TRUE(saw_replay);
  EXPECT_TRUE(saw_forensics);
  EXPECT_EQ(tel->metrics.counter("checkpoint.audit_failures").value(), 1u);
  EXPECT_EQ(tel->trace.open_spans(), 0u);
}

TEST(TelemetryE2E, StoreGaugesAndSpansExportAndRoundTrip) {
  testing::TestGuest guest;
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(50));
  config.checkpoint.store.enabled = true;
  config.checkpoint.store.retention.keep_last = 2;  // force GC activity
  config.telemetry = true;
  Crimes crimes(guest.hypervisor, *guest.kernel, config);

  ParsecProfile profile = ParsecProfile::by_name("raytrace");
  profile.working_set_pages = 256;
  profile.touches_per_ms = 4.0;
  profile.duration_ms = 500.0;
  ParsecWorkload app(*guest.kernel, profile);
  crimes.set_workload(&app);
  crimes.initialize();

  const RunSummary summary = crimes.run(millis(1000));
  ASSERT_EQ(summary.epochs, 10u);
  EXPECT_GT(summary.store_time.count(), 0);

  telemetry::Telemetry* tel = crimes.telemetry();
  ASSERT_NE(tel, nullptr);
  const double generations = tel->metrics.gauge("store.generations").value();
  const double physical = tel->metrics.gauge("store.bytes_physical").value();
  const double logical = tel->metrics.gauge("store.bytes_logical").value();
  EXPECT_GT(generations, 0.0);
  EXPECT_GT(tel->metrics.gauge("store.pages_unique").value(), 0.0);
  EXPECT_GT(physical, 0.0);
  EXPECT_GT(logical, physical) << "dedup must beat naive full copies";

  std::size_t append_spans = 0;
  bool saw_gc = false;
  for (const TraceSpan& s : tel->trace.spans()) {
    if (s.name == "store_append") ++append_spans;
    if (s.name == "gc") saw_gc = true;
  }
  EXPECT_EQ(append_spans, summary.epochs);
  EXPECT_TRUE(saw_gc) << "keep_last=2 over 10 epochs must trigger GC";

  // The store gauges survive the JSONL export/parse round trip.
  StringSink sink;
  telemetry::export_metrics_jsonl(tel->metrics, sink);
  const std::string& text = sink.str();
  bool saw_physical_gauge = false;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    const JsonValue obj = parse_json_or_die(line);
    ASSERT_NE(obj.find("name"), nullptr);
    if (obj.find("name")->str == "store.bytes_physical") {
      saw_physical_gauge = true;
      EXPECT_EQ(obj.find("type")->str, "gauge");
      EXPECT_DOUBLE_EQ(obj.find("value")->number, physical);
    }
  }
  EXPECT_TRUE(saw_physical_gauge);
}

TEST(StoreDisabledPath, IdleEpochsDoNotAllocate) {
  // ISSUE acceptance bar: with the store disabled, the per-epoch store
  // hook is a single null check -- a burst of idle (zero-dirty) epochs
  // must not touch the heap at all.
  testing::TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  CheckpointConfig::full());
  cp.initialize();
  (void)cp.run_checkpoint({});  // warm-up

  const std::uint64_t before =
      g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 32; ++i) {
    (void)cp.run_checkpoint({});
  }
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after)
      << "store-disabled epoch path must not allocate";
}

TEST(StoreDisabledPath, EnabledStoreDoesAllocateForItsManifests) {
  // Contrast for the zero-allocation bar above: the same idle epochs with
  // the store on append generation manifests, so the counter must move.
  testing::TestGuest guest;
  SimClock clock;
  CheckpointConfig config = CheckpointConfig::full();
  config.store.enabled = true;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  config);
  cp.initialize();
  (void)cp.run_checkpoint({});

  const std::uint64_t before =
      g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 32; ++i) {
    (void)cp.run_checkpoint({});
  }
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_GT(after, before);
}

// --- Logger hardening -------------------------------------------------------

TEST(LoggerTest, ParseLevelAcceptsKnownNamesCaseInsensitively) {
  LogLevel out = LogLevel::Warn;
  EXPECT_TRUE(Logger::parse_level("debug", out));
  EXPECT_EQ(out, LogLevel::Debug);
  EXPECT_TRUE(Logger::parse_level("INFO", out));
  EXPECT_EQ(out, LogLevel::Info);
  EXPECT_TRUE(Logger::parse_level("Warn", out));
  EXPECT_EQ(out, LogLevel::Warn);
  EXPECT_TRUE(Logger::parse_level("warning", out));
  EXPECT_EQ(out, LogLevel::Warn);
  EXPECT_TRUE(Logger::parse_level("ERROR", out));
  EXPECT_EQ(out, LogLevel::Error);
  EXPECT_TRUE(Logger::parse_level("off", out));
  EXPECT_EQ(out, LogLevel::Off);

  out = LogLevel::Error;
  EXPECT_FALSE(Logger::parse_level("bogus", out));
  EXPECT_EQ(out, LogLevel::Error) << "failed parse must not clobber out";
  EXPECT_FALSE(Logger::parse_level(nullptr, out));
  EXPECT_FALSE(Logger::parse_level("", out));
}

TEST(LoggerTest, SinkReceivesTimestampedThreadTaggedLines) {
  Logger& logger = Logger::instance();
  const LogLevel old_level = logger.level();
  logger.set_level(LogLevel::Info);
  std::vector<std::string> lines;
  logger.set_sink([&lines](LogLevel, const std::string& line) {
    lines.push_back(line);
  });

  CRIMES_LOG(Info, "telemetry") << "hello " << 42;
  CRIMES_LOG(Debug, "telemetry") << "filtered out";

  logger.set_sink(nullptr);
  logger.set_level(old_level);

  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("[INFO ]"), std::string::npos);
  EXPECT_NE(lines[0].find("ms t:"), std::string::npos);
  EXPECT_NE(lines[0].find("telemetry"), std::string::npos);
  EXPECT_NE(lines[0].find("hello 42"), std::string::npos);
}

TEST(LoggerTest, ConcurrentWritesAreSerializedAndComplete) {
  Logger& logger = Logger::instance();
  const LogLevel old_level = logger.level();
  logger.set_level(LogLevel::Info);
  std::vector<std::string> lines;
  logger.set_sink([&lines](LogLevel, const std::string& line) {
    lines.push_back(line);  // safe: sink runs under the logger mutex
  });

  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        CRIMES_LOG(Info, "worker") << "t" << t << " line " << i;
      }
    });
  }
  for (auto& th : threads) th.join();

  logger.set_sink(nullptr);
  logger.set_level(old_level);

  ASSERT_EQ(lines.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("worker"), std::string::npos);
  }
}

}  // namespace
}  // namespace crimes
