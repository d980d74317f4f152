/// \file stream_join.cpp
/// Windowed two-stream equi-join on the runtime: taxi rides joined with
/// per-route surge-pricing events inside 10-minute tumbling windows. The
/// two sources are merged into one tagged stream (see
/// runtime/window_join_bolt.h) and joined by a WindowJoinBolt stage; a
/// downstream map stage computes the surged fare. Demonstrates that joins
/// compose with the same topology machinery the paper's CQs use (the
/// paper exposes joins through the custom stateful-operation API).

#include <cstdio>
#include <memory>

#include "common/rng.h"
#include "runtime/common_bolts.h"
#include "runtime/executor.h"
#include "runtime/spouts.h"
#include "runtime/window_join_bolt.h"

using namespace spear;  // NOLINT

int main() {
  // Left stream: rides [route, fare], ~20/minute over an hour.
  // Right stream: surge events [route, multiplier], one per route per
  // 10-minute window.
  Rng rng(99);
  std::vector<Tuple> rides;
  for (int i = 0; i < 1200; ++i) {
    const Timestamp t = i * Seconds(3);
    rides.emplace_back(
        t, std::vector<Value>{
               Value(std::string("r").append(
                   std::to_string(rng.NextBounded(10)))),
               Value(5.0 + rng.NextDouble() * 20.0)});
  }
  std::vector<Tuple> surges;
  for (Timestamp w = 0; w < Hours(1); w += Minutes(10)) {
    for (int route = 0; route < 10; ++route) {
      surges.emplace_back(
          w + Minutes(1),
          std::vector<Value>{
              Value(std::string("r").append(std::to_string(route))),
                             Value(1.0 + rng.NextDouble())});
    }
  }
  std::printf("joining %zu rides with %zu surge events...\n", rides.size(),
              surges.size());

  // Tagged union: field 0 becomes the side tag, shifting fields by one.
  auto merged = std::make_shared<VectorSpout>(MergeStreams(rides, surges));

  WindowJoinConfig join;
  join.window = WindowSpec::TumblingTime(Minutes(10));
  join.tag_field = 0;
  join.left_key = KeyField(1);   // ride route
  join.right_key = KeyField(1);  // surge route

  TopologyBuilder builder;
  builder.Source(merged, /*watermark_interval=*/Minutes(10));
  builder.Stage("join", 1, Partitioner::Shuffle(), [join](int) {
    return std::make_unique<WindowJoinBolt>(join);
  });
  // Joined layout: [start, end, key, route, fare, route, multiplier].
  builder.Stage("surge-fare", 2, Partitioner::Shuffle(), [](int) {
    return std::make_unique<MapBolt>([](const Tuple& t) {
      const double fare = t.field(4).AsDouble();
      const double multiplier = t.field(6).AsDouble();
      return Tuple(t.event_time(),
                   {t.field(0), t.field(1), t.field(2),
                    Value(fare * multiplier)});
    });
  });

  auto topology = builder.Build();
  if (!topology.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 topology.status().ToString().c_str());
    return 1;
  }
  auto report = Executor(std::move(*topology)).Run();
  if (!report.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  std::printf("produced %zu surged fares\n", report->output.size());
  double total = 0.0;
  for (const Tuple& t : report->output) total += t.field(3).AsDouble();
  std::printf("first results:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, report->output.size());
       ++i) {
    const Tuple& t = report->output[i];
    std::printf("  window [%lld, %lld) route %-4s surged fare $%.2f\n",
                static_cast<long long>(t.field(0).AsInt64() / 60000),
                static_cast<long long>(t.field(1).AsInt64() / 60000),
                t.field(2).AsString().c_str(), t.field(3).AsDouble());
  }
  std::printf("total surged volume: $%.2f\n", total);
  return report->output.empty() ? 1 : 0;
}
