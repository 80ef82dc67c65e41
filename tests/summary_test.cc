// Tests for the model-summary walker and formatter.
#include <string>

#include "gtest/gtest.h"
#include "src/models/cnn.h"
#include "src/nn/summary.h"
#include "src/obs/profiler.h"

namespace ms {
namespace {

CnnConfig SmallCfg() {
  CnnConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 4;
  cfg.base_width = 8;
  cfg.stages = 2;
  cfg.blocks_per_stage = 1;
  cfg.slice_groups = 4;
  cfg.seed = 1;
  return cfg;
}

TEST(Summary, WalksAllLayersAndTotalsMatchRoot) {
  auto net = MakeVggSmall(SmallCfg()).MoveValueOrDie();
  Tensor sample({1, 3, 8, 8});
  const ModelSummary s = Summarize(net.get(), sample, 1.0);
  ASSERT_GT(s.layers.size(), 5u);
  EXPECT_EQ(s.layers.front().kind, "sequential");
  // Root totals equal the sums over depth-1 leaves for a flat VGG.
  int64_t leaf_params = 0, leaf_flops = 0;
  for (const auto& l : s.layers) {
    if (l.depth == 1) {
      leaf_params += l.active_params;
      leaf_flops += l.flops;
    }
  }
  EXPECT_EQ(s.total_params, leaf_params);
  EXPECT_EQ(s.total_flops, leaf_flops);
}

TEST(Summary, SlicedSummaryShrinks) {
  auto net = MakeVggSmall(SmallCfg()).MoveValueOrDie();
  Tensor sample({1, 3, 8, 8});
  const ModelSummary full = Summarize(net.get(), sample, 1.0);
  const ModelSummary half = Summarize(net.get(), sample, 0.5);
  EXPECT_LT(half.total_params, full.total_params);
  EXPECT_LT(half.total_flops, full.total_flops);
  EXPECT_DOUBLE_EQ(half.rate, 0.5);
}

TEST(Summary, RecursesIntoResidualBlocks) {
  auto net = MakeResNet(SmallCfg()).MoveValueOrDie();
  Tensor sample({1, 3, 8, 8});
  const ModelSummary s = Summarize(net.get(), sample, 1.0);
  bool saw_residual = false, saw_nested_conv = false;
  for (const auto& l : s.layers) {
    if (l.kind == "residual") saw_residual = true;
    if (l.kind == "conv2d" && l.depth >= 2) saw_nested_conv = true;
  }
  EXPECT_TRUE(saw_residual);
  EXPECT_TRUE(saw_nested_conv);
}

TEST(Summary, ConvKindsFollowConvGroups) {
  // The kind is derived from the conv's shape: ResNeXt branches are
  // "gconv", MobileNet's per-channel filters "dwconv", the rest "conv2d".
  Tensor sample({1, 3, 8, 8});
  auto count = [](const ModelSummary& s, const std::string& kind) {
    int64_t n = 0;
    for (const auto& l : s.layers) n += l.kind == kind ? 1 : 0;
    return n;
  };
  CnnConfig wide = SmallCfg();
  wide.base_width = 16;  // branches 2 and 4 channels wide
  auto next = MakeResNeXtSmall(wide).MoveValueOrDie();
  const ModelSummary ns = Summarize(next.get(), sample, 0.5);
  EXPECT_EQ(count(ns, "gconv"), 2);  // one per block
  EXPECT_EQ(count(ns, "dwconv"), 0);
  EXPECT_GT(count(ns, "conv2d"), 0);
  // Branches one channel wide are depthwise by shape (stage 0 of SmallCfg).
  auto narrow = MakeResNeXtSmall(SmallCfg()).MoveValueOrDie();
  const ModelSummary nn = Summarize(narrow.get(), sample, 0.5);
  EXPECT_EQ(count(nn, "gconv"), 1);
  EXPECT_EQ(count(nn, "dwconv"), 1);
  auto mobile = MakeMobileNetSmall(SmallCfg()).MoveValueOrDie();
  const ModelSummary ms = Summarize(mobile.get(), sample, 0.5);
  EXPECT_EQ(count(ms, "dwconv"), 2);  // one per block
  EXPECT_EQ(count(ms, "gconv"), 0);
  EXPECT_GT(count(ms, "conv2d"), 0);
}

// mscli summary's protocol: a warm-up forward outside the profiler, then
// Summarize times exactly kSummaryTimedForwards forwards per layer.
TEST(Summary, ProfilerSeesExactlyTheTimedForwards) {
  auto net = MakeVggSmall(SmallCfg()).MoveValueOrDie();
  Tensor sample({1, 3, 8, 8});
  net->SetSliceRate(0.5);
  (void)net->Forward(sample, /*training=*/false);  // warm-up, untimed
  obs::SliceProfiler profiler;
  obs::ProfilerScope scope(&profiler);
  const ModelSummary s = Summarize(net.get(), sample, 0.5);
  const auto stats = profiler.ForwardStats();
  ASSERT_FALSE(stats.empty());
  for (const auto& st : stats) {
    EXPECT_EQ(st.forward_calls, kSummaryTimedForwards) << st.layer;
    EXPECT_DOUBLE_EQ(st.rate, 0.5) << st.layer;
  }
  EXPECT_GT(s.layers.front().fwd_millis, 0.0);
}

TEST(Summary, FormatContainsLayersAndTotal) {
  auto net = MakeVggSmall(SmallCfg()).MoveValueOrDie();
  Tensor sample({1, 3, 8, 8});
  const std::string text =
      FormatSummary(Summarize(net.get(), sample, 0.5));
  EXPECT_NE(text.find("slice rate 0.500"), std::string::npos);
  EXPECT_NE(text.find("classifier"), std::string::npos);
  EXPECT_NE(text.find("TOTAL (active)"), std::string::npos);
  EXPECT_NE(text.find("groupnorm"), std::string::npos);
}

}  // namespace
}  // namespace ms
