#include "runtime/executor.h"

#include <gtest/gtest.h>

#include <atomic>

#include "runtime/common_bolts.h"
#include "runtime/spouts.h"

namespace spear {
namespace {

std::vector<Tuple> NumberStream(int n) {
  std::vector<Tuple> out;
  for (int i = 0; i < n; ++i) {
    out.emplace_back(i, std::vector<Value>{Value(static_cast<double>(i))});
  }
  return out;
}

TEST(ExecutorTest, SingleStagePassThrough) {
  TopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(NumberStream(100)));
  builder.Stage("identity", 1, Partitioner::Shuffle(), [](int) {
    return std::make_unique<MapBolt>([](const Tuple& t) { return t; });
  });
  auto topology = builder.Build();
  ASSERT_TRUE(topology.ok());
  auto report = Executor(std::move(*topology)).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->output.size(), 100u);
}

TEST(ExecutorTest, FilterDropsTuples) {
  TopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(NumberStream(100)));
  builder.Stage("evens", 1, Partitioner::Shuffle(), [](int) {
    return std::make_unique<FilterBolt>([](const Tuple& t) {
      return t.event_time() % 2 == 0;
    });
  });
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->output.size(), 50u);
}

TEST(ExecutorTest, MultiStagePipeline) {
  TopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(NumberStream(50)));
  builder.Stage("double", 2, Partitioner::Shuffle(), [](int) {
    return std::make_unique<MapBolt>([](const Tuple& t) {
      Tuple out = t;
      out.field(0) = Value(t.field(0).AsDouble() * 2.0);
      return out;
    });
  });
  builder.Stage("add-one", 2, Partitioner::Shuffle(), [](int) {
    return std::make_unique<MapBolt>([](const Tuple& t) {
      Tuple out = t;
      out.field(0) = Value(t.field(0).AsDouble() + 1.0);
      return out;
    });
  });
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->output.size(), 50u);
  double total = 0.0;
  for (const Tuple& t : report->output) total += t.field(0).AsDouble();
  // sum(2i + 1) for i in 0..49 = 2*1225 + 50.
  EXPECT_DOUBLE_EQ(total, 2500.0);
  // Each stage counts every tuple it emits exactly once, whether it hands
  // them to a downstream queue or collects them as the sink.
  for (const char* stage : {"double", "add-one"}) {
    std::uint64_t out = 0;
    for (const auto* m : report->metrics.ForStage(stage)) {
      out += m->tuples_out();
    }
    EXPECT_EQ(out, 50u) << stage;
  }
}

TEST(ExecutorTest, ParallelismPartitionsWork) {
  TopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(NumberStream(1000)));
  builder.Stage("work", 4, Partitioner::Shuffle(), [](int) {
    return std::make_unique<MapBolt>([](const Tuple& t) { return t; });
  });
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->output.size(), 1000u);
  // Every worker should have processed ~250 tuples, and emitted them.
  for (const auto* m : report->metrics.ForStage("work")) {
    EXPECT_EQ(m->tuples_in(), 250u);
    EXPECT_EQ(m->tuples_out(), 250u);
  }
}

TEST(ExecutorTest, FieldsGroupingKeepsKeysTogether) {
  std::vector<Tuple> tuples;
  for (int i = 0; i < 400; ++i) {
    tuples.emplace_back(
        i, std::vector<Value>{Value("key" + std::to_string(i % 4))});
  }
  // Each worker tags output with its task id; a key must map to one task.
  TopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(std::move(tuples)));
  builder.Stage("grouped", 4, Partitioner::Fields(KeyField(0)), [](int task) {
    return std::make_unique<MapBolt>([task](const Tuple& t) {
      Tuple out = t;
      out.AppendField(Value(static_cast<std::int64_t>(task)));
      return out;
    });
  });
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok());
  std::unordered_map<std::string, std::int64_t> key_task;
  for (const Tuple& t : report->output) {
    const std::string key = t.field(0).AsString();
    const std::int64_t task = t.field(1).AsInt64();
    const auto [it, inserted] = key_task.emplace(key, task);
    if (!inserted) {
      EXPECT_EQ(it->second, task) << key;
    }
  }
}

TEST(ExecutorTest, WatermarksReachBolts) {
  struct WatermarkCounter : Bolt {
    std::atomic<int>* count;
    explicit WatermarkCounter(std::atomic<int>* c) : count(c) {}
    Status Execute(const Tuple&, Emitter*) override { return Status::OK(); }
    Status OnWatermark(Timestamp, Emitter*) override {
      ++*count;
      return Status::OK();
    }
  };
  std::atomic<int> watermarks{0};
  TopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(NumberStream(1000)),
                 /*watermark_interval=*/100);
  builder.Stage("count", 1, Partitioner::Shuffle(), [&](int) {
    return std::make_unique<WatermarkCounter>(&watermarks);
  });
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok());
  // ~10 periodic watermarks plus the final one.
  EXPECT_GE(watermarks.load(), 10);
}

TEST(ExecutorTest, FinishCalledOncePerWorker) {
  struct FinishCounter : Bolt {
    std::atomic<int>* count;
    explicit FinishCounter(std::atomic<int>* c) : count(c) {}
    Status Execute(const Tuple&, Emitter*) override { return Status::OK(); }
    Status Finish(Emitter*) override {
      ++*count;
      return Status::OK();
    }
  };
  std::atomic<int> finishes{0};
  TopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(NumberStream(10)));
  builder.Stage("a", 3, Partitioner::Shuffle(), [&](int) {
    return std::make_unique<FinishCounter>(&finishes);
  });
  builder.Stage("b", 2, Partitioner::Shuffle(), [&](int) {
    return std::make_unique<FinishCounter>(&finishes);
  });
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(finishes.load(), 5);
}

TEST(ExecutorTest, BoltErrorCancelsRun) {
  struct FailingBolt : Bolt {
    Status Execute(const Tuple& t, Emitter*) override {
      if (t.event_time() == 7) return Status::Internal("boom");
      return Status::OK();
    }
  };
  TopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(NumberStream(100)));
  builder.Stage("fail", 1, Partitioner::Shuffle(), [](int) {
    return std::make_unique<FailingBolt>();
  });
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInternal());
  EXPECT_EQ(report.status().message(), "boom");
}

TEST(ExecutorTest, EmptyStreamStillFlushes) {
  TopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(std::vector<Tuple>{}));
  builder.Stage("s", 2, Partitioner::Shuffle(), [](int) {
    return std::make_unique<MapBolt>([](const Tuple& t) { return t; });
  });
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->output.empty());
}

TEST(ExecutorTest, BackPressureWithTinyQueues) {
  TopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(NumberStream(5000)));
  builder.QueueCapacity(2);  // maximal back-pressure
  builder.Stage("slowish", 2, Partitioner::Shuffle(), [](int) {
    return std::make_unique<MapBolt>([](const Tuple& t) { return t; });
  });
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->output.size(), 5000u);
}

TEST(ExecutorTest, PrepareFailureCancelsRun) {
  struct BadPrepare : Bolt {
    Status Prepare(const BoltContext&) override {
      return Status::FailedPrecondition("no disk");
    }
    Status Execute(const Tuple&, Emitter*) override { return Status::OK(); }
  };
  TopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(NumberStream(100)));
  builder.Stage("bad", 2, Partitioner::Shuffle(), [](int) {
    return std::make_unique<BadPrepare>();
  });
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsFailedPrecondition());
}

TEST(ExecutorTest, FinishFailurePropagates) {
  struct BadFinish : Bolt {
    Status Execute(const Tuple&, Emitter*) override { return Status::OK(); }
    Status Finish(Emitter*) override { return Status::Internal("flush"); }
  };
  TopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(NumberStream(10)));
  builder.Stage("bad", 1, Partitioner::Shuffle(), [](int) {
    return std::make_unique<BadFinish>();
  });
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().message(), "flush");
}

TEST(ExecutorTest, NullBoltFromFactoryFails) {
  TopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(NumberStream(10)));
  builder.Stage("null", 1, Partitioner::Shuffle(),
                [](int) -> std::unique_ptr<Bolt> { return nullptr; });
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInternal());
}

TEST(ExecutorTest, WatermarkAlignmentAcrossParallelUpstream) {
  // A two-stage pipeline where stage one has 4 workers: the downstream
  // worker must see each aligned watermark exactly once (the minimum
  // across channels), never regressing.
  struct WatermarkRecorder : Bolt {
    std::vector<Timestamp>* seen;
    std::mutex* mutex;
    WatermarkRecorder(std::vector<Timestamp>* s, std::mutex* m)
        : seen(s), mutex(m) {}
    Status Execute(const Tuple&, Emitter*) override { return Status::OK(); }
    Status OnWatermark(Timestamp wm, Emitter*) override {
      std::lock_guard<std::mutex> lock(*mutex);
      seen->push_back(wm);
      return Status::OK();
    }
  };
  std::vector<Timestamp> seen;
  std::mutex mutex;
  TopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(NumberStream(2000)),
                 /*watermark_interval=*/250);
  builder.Stage("fan", 4, Partitioner::Shuffle(), [](int) {
    return std::make_unique<MapBolt>([](const Tuple& t) { return t; });
  });
  builder.Stage("collect", 1, Partitioner::Shuffle(), [&](int) {
    return std::make_unique<WatermarkRecorder>(&seen, &mutex);
  });
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok());
  ASSERT_GE(seen.size(), 7u);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GT(seen[i], seen[i - 1]) << "watermarks must strictly advance";
  }
  EXPECT_EQ(seen.back(), kMaxTimestamp);  // final watermark aligned too
}

TEST(ExecutorTest, RepeatedRunsWithFreshSpoutsAreDeterministic) {
  auto run_once = [] {
    TopologyBuilder builder;
    builder.Source(std::make_shared<VectorSpout>(NumberStream(500)));
    builder.Stage("sum", 1, Partitioner::Shuffle(), [](int) {
      return std::make_unique<MapBolt>([](const Tuple& t) { return t; });
    });
    auto report = Executor(std::move(*builder.Build())).Run();
    EXPECT_TRUE(report.ok());
    double total = 0.0;
    for (const Tuple& t : report->output) total += t.field(0).AsDouble();
    return total;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(ExecutorTest, BatchSizeDoesNotChangeDeterministicOutput) {
  // On a fully deterministic (fields-partitioned) topology, batch sizes 1
  // and 64 must produce identical output (same tuples, same order, equal
  // field values): per-channel order is preserved and sink outputs merge
  // in task order.
  auto run_with_batch = [](std::size_t batch_max) {
    std::vector<Tuple> tuples;
    for (int i = 0; i < 1000; ++i) {
      tuples.emplace_back(
          i, std::vector<Value>{Value("key" + std::to_string(i % 8)),
                                Value(static_cast<double>(i))});
    }
    TopologyBuilder builder;
    builder.Source(std::make_shared<VectorSpout>(std::move(tuples)),
                   /*watermark_interval=*/100);
    builder.BatchMaxTuples(batch_max);
    builder.Stage("grouped", 4, Partitioner::Fields(KeyField(0)),
                  [](int task) {
                    return std::make_unique<MapBolt>([task](const Tuple& t) {
                      Tuple out = t;
                      out.AppendField(Value(static_cast<std::int64_t>(task)));
                      return out;
                    });
                  });
    auto report = Executor(std::move(*builder.Build())).Run();
    EXPECT_TRUE(report.ok());
    return report->output;
  };
  const std::vector<Tuple> unbatched = run_with_batch(1);
  const std::vector<Tuple> batched = run_with_batch(64);
  EXPECT_FALSE(unbatched.empty());
  EXPECT_EQ(unbatched, batched);
}

TEST(ExecutorTest, BatchLargerThanQueueCapacityBackPressures) {
  // batch_max_tuples far above queue_capacity: PushAll must chunk batches
  // through the bound without losing tuples or deadlocking.
  TopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(NumberStream(5000)));
  builder.QueueCapacity(2);
  builder.BatchMaxTuples(256);
  builder.Stage("a", 2, Partitioner::Shuffle(), [](int) {
    return std::make_unique<MapBolt>([](const Tuple& t) { return t; });
  });
  builder.Stage("b", 2, Partitioner::Shuffle(), [](int) {
    return std::make_unique<MapBolt>([](const Tuple& t) { return t; });
  });
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->output.size(), 5000u);
}

TEST(ExecutorTest, UnbatchedChannelsStillWork) {
  // batch_max_tuples = 1 reproduces the historical per-tuple channel.
  TopologyBuilder builder;
  builder.Source(std::make_shared<VectorSpout>(NumberStream(500)),
                 /*watermark_interval=*/50);
  builder.BatchMaxTuples(1);
  builder.Stage("fan", 3, Partitioner::Shuffle(), [](int) {
    return std::make_unique<MapBolt>([](const Tuple& t) { return t; });
  });
  builder.Stage("sink", 2, Partitioner::Shuffle(), [](int) {
    return std::make_unique<MapBolt>([](const Tuple& t) { return t; });
  });
  auto report = Executor(std::move(*builder.Build())).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->output.size(), 500u);
}

TEST(TopologyBuilderTest, ValidationErrors) {
  {
    TopologyBuilder b;
    EXPECT_TRUE(b.Build().status().IsInvalid());  // no source
  }
  {
    TopologyBuilder b;
    b.Source(std::make_shared<VectorSpout>(NumberStream(1)));
    EXPECT_TRUE(b.Build().status().IsInvalid());  // no stages
  }
  {
    TopologyBuilder b;
    b.Source(std::make_shared<VectorSpout>(NumberStream(1)));
    b.Stage("s", 0, Partitioner::Shuffle(),
            [](int) { return std::make_unique<MapBolt>(nullptr); });
    EXPECT_TRUE(b.Build().status().IsInvalid());  // parallelism 0
  }
  {
    TopologyBuilder b;
    b.Source(std::make_shared<VectorSpout>(NumberStream(1)));
    b.Stage("s", 1, Partitioner::Shuffle(), nullptr);
    EXPECT_TRUE(b.Build().status().IsInvalid());  // no factory
  }
  {
    TopologyBuilder b;
    b.Source(std::make_shared<VectorSpout>(NumberStream(1)));
    b.Stage("s", 1, Partitioner::Shuffle(),
            [](int) { return std::make_unique<MapBolt>(nullptr); });
    b.BatchMaxTuples(0);
    EXPECT_TRUE(b.Build().status().IsInvalid());  // batch bound 0
  }
}

}  // namespace
}  // namespace spear
