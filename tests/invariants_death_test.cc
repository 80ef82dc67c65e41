// Death tests: internal invariant violations must abort loudly via MS_CHECK
// rather than corrupt memory — shape mismatches between slices are the most
// dangerous class of bug in a width-dynamic library.
#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/norm.h"
#include "src/nn/slice_spec.h"
#include "src/tensor/prepack.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace ms {
namespace {

using InvariantsDeathTest = ::testing::Test;

TEST(InvariantsDeathTest, TensorCheckedAccessOutOfBounds) {
  Tensor t({2, 2});
  EXPECT_DEATH(t.at(4), "MS_CHECK failed");
  EXPECT_DEATH(t.at(-1), "MS_CHECK failed");
}

TEST(InvariantsDeathTest, TensorReshapeSizeMismatch) {
  Tensor t({2, 3});
  EXPECT_DEATH(t.Reshape({7}), "MS_CHECK failed");
}

TEST(InvariantsDeathTest, DenseRejectsWrongInputWidth) {
  Rng rng(1);
  DenseOptions opts;
  opts.in_features = 8;
  opts.out_features = 4;
  opts.groups = 4;
  Dense layer(opts, &rng);
  layer.SetSliceRate(0.5);  // expects 4 input features
  Tensor x = Tensor::Randn({2, 8}, &rng);
  EXPECT_DEATH(layer.Forward(x, false), "active_in");
}

TEST(InvariantsDeathTest, ConvRejectsWrongChannelCount) {
  Rng rng(2);
  Conv2dOptions opts;
  opts.in_channels = 8;
  opts.out_channels = 4;
  opts.groups = 4;
  Conv2d layer(opts, &rng);
  layer.SetSliceRate(0.5);
  Tensor x = Tensor::Randn({1, 8, 4, 4}, &rng);
  EXPECT_DEATH(layer.Forward(x, false), "active_in");
}

TEST(InvariantsDeathTest, ConvBackwardRejectsShortGradBatch) {
  // Dense, grouped and depthwise convs all check grad_out's batch against
  // the cached forward batch; a shorter grad_out would be read past its end.
  // The forward below starts the compute pool, whose threads a forked
  // death-test child would not have: re-exec the child instead.
  const std::string style = ::testing::FLAGS_gtest_death_test_style;
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (int64_t cg : {1, 4, 8}) {
    Rng rng(5);
    Conv2dOptions opts;
    opts.in_channels = 8;
    opts.out_channels = 8;
    opts.groups = 4;
    opts.conv_groups = cg;
    Conv2d layer(opts, &rng);
    layer.Forward(Tensor::Randn({4, 8, 4, 4}, &rng), /*training=*/true);
    Tensor g = Tensor::Randn({2, 8, 4, 4}, &rng);
    EXPECT_DEATH(layer.Backward(g), "MS_CHECK failed") << "conv_groups=" << cg;
  }
  ::testing::FLAGS_gtest_death_test_style = style;
}

TEST(InvariantsDeathTest, ConvRejectsKernelLargerThanPaddedInput) {
  // A 3-wide window at stride 2 over 2 padded pixels: truncating division
  // would give one output row that reads past the padded input, which the
  // implicit-GEMM panel fill does without bounds checks. Earlier tests may
  // have started the compute pool: re-exec the child rather than fork.
  const std::string style = ::testing::FLAGS_gtest_death_test_style;
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(6);
  Conv2dOptions opts;
  opts.in_channels = 4;
  opts.out_channels = 4;
  opts.kernel = 3;
  opts.stride = 2;
  opts.pad = 0;
  Conv2d layer(opts, &rng);
  for (const auto& hw : {std::pair<int64_t, int64_t>{2, 2}, {7, 2}, {2, 7}}) {
    Tensor x = Tensor::Randn({1, 4, hw.first, hw.second}, &rng);
    EXPECT_DEATH(layer.Forward(x, /*training=*/false),
                 "Conv2d kernel larger than the padded input")
        << hw.first << "x" << hw.second;
    EXPECT_DEATH(ops::MakePaddedConvInput(4, hw.first, hw.second, 3, 2, 0),
                 "kernel larger than the padded input")
        << hw.first << "x" << hw.second;
  }
  ::testing::FLAGS_gtest_death_test_style = style;
}

TEST(InvariantsDeathTest, GroupNormRejectsWrongPrefix) {
  NormOptions opts;
  opts.channels = 8;
  opts.groups = 4;
  GroupNorm gn(opts);
  gn.SetSliceRate(0.5);
  Rng rng(3);
  Tensor x = Tensor::Randn({1, 8, 2, 2}, &rng);
  EXPECT_DEATH(gn.Forward(x, true), "active prefix");
}

TEST(InvariantsDeathTest, SliceSpecRejectsInvalidRate) {
  SliceSpec spec(8, 4);
  EXPECT_DEATH(spec.ActiveWidth(0.0), "slice rate");
  EXPECT_DEATH(spec.ActiveWidth(1.5), "slice rate");
}

TEST(InvariantsDeathTest, BatchNormBackwardRequiresTrainingForward) {
  NormOptions opts;
  opts.channels = 4;
  BatchNorm bn(opts);
  Rng rng(4);
  Tensor x = Tensor::Randn({2, 4}, &rng);
  bn.Forward(x, /*training=*/false);
  Tensor g = Tensor::Randn({2, 4}, &rng);
  EXPECT_DEATH(bn.Backward(g), "training-mode Forward");
}

}  // namespace
}  // namespace ms
