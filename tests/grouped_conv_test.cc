// Gradient checks and branch-semantics tests for grouped convolution
// (Conv2d with conv_groups > 1: ResNeXt-style branches and depthwise) under
// slicing, plus the batch-invariance contract of the one conv layer.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/nn/conv2d.h"
#include "src/tensor/gemm.h"
#include "tests/gradcheck_util.h"

namespace ms {
namespace {

class GroupedConvGradCheck : public ::testing::TestWithParam<double> {};

TEST_P(GroupedConvGradCheck, Gradients) {
  const double rate = GetParam();
  Rng rng(41);
  Conv2dOptions opts;
  opts.in_channels = 8;
  opts.out_channels = 8;
  opts.kernel = 3;
  opts.pad = 1;
  opts.groups = 4;
  opts.conv_groups = 4;
  Conv2d layer(opts, &rng);
  layer.SetSliceRate(rate);
  Tensor x = Tensor::Randn({2, layer.active_in(), 5, 5}, &rng);
  testing_util::CheckModuleGradients(&layer, x, 401);
}

INSTANTIATE_TEST_SUITE_P(Rates, GroupedConvGradCheck,
                         ::testing::Values(0.25, 0.5, 0.75, 1.0));

TEST(GroupedConv, BranchesAreIndependent) {
  // Zeroing the input of branch 1 must not change branch 0's output.
  Rng rng(42);
  Conv2dOptions opts;
  opts.in_channels = 4;
  opts.out_channels = 4;
  opts.kernel = 3;
  opts.pad = 1;
  opts.groups = 2;
  opts.conv_groups = 2;
  Conv2d layer(opts, &rng);
  Tensor x = Tensor::Randn({1, 4, 4, 4}, &rng);
  Tensor y_full = layer.Forward(x, false);
  Tensor x_masked = x;
  for (int64_t i = 2 * 16; i < 4 * 16; ++i) x_masked[i] = 0.0f;  // branch 1
  Tensor y_masked = layer.Forward(x_masked, false);
  for (int64_t i = 0; i < 2 * 16; ++i) {   // branch 0 outputs unchanged
    EXPECT_FLOAT_EQ(y_full[i], y_masked[i]);
  }
}

TEST(GroupedConv, CostScalesLinearlyInActiveBranches) {
  Rng rng(43);
  Conv2dOptions opts;
  opts.in_channels = 16;
  opts.out_channels = 16;
  opts.groups = 4;
  opts.conv_groups = 4;
  Conv2d layer(opts, &rng);
  layer.SetSliceRate(1.0);
  Tensor x = Tensor::Randn({1, 16, 4, 4}, &rng);
  layer.Forward(x, false);
  const int64_t full = layer.FlopsPerSample();
  layer.SetSliceRate(0.5);
  Tensor x_half = Tensor::Randn({1, 8, 4, 4}, &rng);
  layer.Forward(x_half, false);
  EXPECT_EQ(layer.FlopsPerSample() * 2, full);
}

// Restores the global thread count / fusion toggle on scope exit so a
// failing ASSERT cannot leak state into later tests.
struct GlobalStateGuard {
  int threads = ops::ComputeThreads();
  ~GlobalStateGuard() {
    ops::SetComputeThreads(threads);
    ops::SetFuseEpilogues(true);
  }
};

// Channels [c0, c0 + c) of every image of an NCHW tensor.
Tensor ChannelBlock(const Tensor& x, int64_t c0, int64_t c) {
  const int64_t batch = x.dim(0), ch = x.dim(1);
  const int64_t plane = x.dim(2) * x.dim(3);
  Tensor out({batch, c, x.dim(2), x.dim(3)});
  for (int64_t b = 0; b < batch; ++b) {
    std::memcpy(out.data() + b * c * plane, x.data() + (b * ch + c0) * plane,
                static_cast<size_t>(c * plane) * sizeof(float));
  }
  return out;
}

bool Bitwise(const float* a, const float* b, int64_t n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

// conv_groups = G computes exactly what G independent dense convs compute
// on the channel blocks (block-diagonal weight), bitwise in fp32 and int8,
// fused and unfused, at every slice rate.
TEST(GroupedConv, EqualsIndependentDenseConvsPerBlock) {
  GlobalStateGuard guard;
  constexpr int64_t kGroups = 4, kInPg = 2, kOutPg = 3;
  Rng rng(44);
  Conv2dOptions opts;
  opts.in_channels = kGroups * kInPg;
  opts.out_channels = kGroups * kOutPg;
  opts.groups = kGroups;
  opts.conv_groups = kGroups;
  opts.bias = true;
  Conv2d grouped(opts, &rng);
  grouped.SetFusedActivation(ops::EpiAct::kRelu);
  for (int64_t i = 0; i < grouped.bias().size(); ++i) {
    (*grouped.mutable_bias())[i] = 0.1f * static_cast<float>(i) - 0.5f;
  }

  std::vector<std::unique_ptr<Conv2d>> dense;
  Conv2dOptions dopts = opts;
  dopts.in_channels = kInPg;
  dopts.out_channels = kOutPg;
  dopts.groups = 1;
  dopts.conv_groups = 1;
  const int64_t row = kInPg * 9;
  for (int64_t g = 0; g < kGroups; ++g) {
    Rng drng(100 + static_cast<uint64_t>(g));
    dense.push_back(std::make_unique<Conv2d>(dopts, &drng));
    dense.back()->SetFusedActivation(ops::EpiAct::kRelu);
    std::memcpy(dense.back()->mutable_weight()->data(),
                grouped.weight().data() + g * kOutPg * row,
                static_cast<size_t>(kOutPg * row) * sizeof(float));
    for (int64_t c = 0; c < kOutPg; ++c) {
      (*dense.back()->mutable_bias())[c] = grouped.bias()[g * kOutPg + c];
    }
  }

  Tensor x_full = Tensor::Randn({3, opts.in_channels, 6, 6}, &rng);
  for (Precision p : {Precision::kFp32, Precision::kInt8}) {
    grouped.SetPrecision(p);
    for (auto& d : dense) d->SetPrecision(p);
    for (bool fuse : {true, false}) {
      ops::SetFuseEpilogues(fuse);
      for (double r : {0.25, 0.5, 1.0}) {
        grouped.SetSliceRate(r);
        const int64_t active = grouped.active_in() / kInPg;
        Tensor x = ChannelBlock(x_full, 0, grouped.active_in());
        Tensor y = grouped.Forward(x, false);
        for (int64_t g = 0; g < active; ++g) {
          Tensor yg = dense[static_cast<size_t>(g)]->Forward(
              ChannelBlock(x, g * kInPg, kInPg), false);
          Tensor ref = ChannelBlock(y, g * kOutPg, kOutPg);
          EXPECT_TRUE(Bitwise(ref.data(), yg.data(), yg.size()))
              << "group " << g << " r=" << r << " fuse=" << fuse
              << " precision=" << PrecisionName(p);
        }
      }
    }
  }
}

// Batch invariance: row i of Forward(batch) is bitwise Forward(x[i]) for
// dense, grouped and depthwise convs at every rate, precision, thread count
// and fusion setting.
TEST(ConvContract, BatchInvariant) {
  GlobalStateGuard guard;
  constexpr int64_t kChannels = 8, kBatch = 5, kHw = 6;
  for (int64_t cg : {int64_t{1}, int64_t{4}, kChannels}) {
    Rng rng(45 + static_cast<uint64_t>(cg));
    Conv2dOptions opts;
    opts.in_channels = kChannels;
    opts.out_channels = kChannels;
    opts.groups = 4;
    opts.conv_groups = cg;
    opts.bias = cg != kChannels;  // the depthwise kernel takes no bias
    Conv2d conv(opts, &rng);
    conv.SetFusedActivation(ops::EpiAct::kRelu);
    if (opts.bias) {
      for (int64_t i = 0; i < kChannels; ++i) {
        (*conv.mutable_bias())[i] = 0.05f * static_cast<float>(i) - 0.2f;
      }
    }
    for (Precision p : {Precision::kFp32, Precision::kInt8}) {
      conv.SetPrecision(p);
      for (int threads : {1, 4}) {
        ops::SetComputeThreads(threads);
        for (bool fuse : {true, false}) {
          ops::SetFuseEpilogues(fuse);
          for (double r : {0.25, 0.5, 1.0}) {
            conv.SetSliceRate(r);
            const int64_t m = conv.active_in();
            Tensor x = Tensor::Randn({kBatch, m, kHw, kHw}, &rng);
            Tensor y = conv.Forward(x, false);
            const int64_t in_row = m * kHw * kHw;
            const int64_t out_row = y.size() / kBatch;
            for (int64_t i = 0; i < kBatch; ++i) {
              Tensor xi({1, m, kHw, kHw});
              std::memcpy(xi.data(), x.data() + i * in_row,
                          static_cast<size_t>(in_row) * sizeof(float));
              Tensor yi = conv.Forward(xi, false);
              ASSERT_EQ(yi.size(), out_row);
              EXPECT_TRUE(Bitwise(y.data() + i * out_row, yi.data(), out_row))
                  << "conv_groups=" << cg << " row " << i << " r=" << r
                  << " threads=" << threads << " fuse=" << fuse
                  << " precision=" << PrecisionName(p);
            }
          }
        }
      }
    }
  }
}

enum class ConvMode { kFused, kUnfused, kTraining };

// Per image and conv group: Im2Col followed by the scalar reference
// GemmRefEx, with the bias always and the ReLU only when fused.
Tensor Im2ColGemmOracle(const Conv2d& conv, const Tensor& x, ConvMode mode) {
  const Conv2dOptions& o = conv.options();
  const int64_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int64_t oh = (h + 2 * o.pad - o.kernel) / o.stride + 1;
  const int64_t ow = (w + 2 * o.pad - o.kernel) / o.stride + 1;
  const int64_t groups =
      o.conv_groups == 1 ? 1
                         : conv.active_in() / (o.in_channels / o.conv_groups);
  const int64_t m = conv.active_in() / groups;
  const int64_t n = conv.active_out() / groups;
  const int64_t col_rows = m * o.kernel * o.kernel;
  const int64_t ld_w = conv.weight().dim(1);
  const int64_t out_pg = o.out_channels / o.conv_groups;
  Tensor ref({batch, conv.active_out(), oh, ow});
  std::vector<float> cols(static_cast<size_t>(col_rows * oh * ow));
  for (int64_t img = 0; img < batch; ++img) {
    for (int64_t g = 0; g < groups; ++g) {
      ops::Im2Col(x.data() + (img * conv.active_in() + g * m) * h * w, m, h,
                  w, o.kernel, o.stride, o.pad, cols.data());
      ops::Epilogue epi;
      epi.bias = conv.bias().data() + g * n;
      epi.per_row = true;
      if (mode == ConvMode::kFused) epi.act = ops::EpiAct::kRelu;
      ops::GemmRefEx(false, false, n, oh * ow, col_rows, 1.0f,
                     conv.weight().data() + g * out_pg * ld_w, ld_w,
                     cols.data(), oh * ow, 0.0f,
                     ref.data() + (img * conv.active_out() + g * n) * oh * ow,
                     oh * ow, epi);
    }
  }
  return ref;
}

// Conv2d with bias (nonzero) and a planted ReLU for the fused mode.
std::unique_ptr<Conv2d> OracleConv(Conv2dOptions opts, uint64_t seed) {
  Rng rng(seed);
  opts.bias = true;
  auto conv = std::make_unique<Conv2d>(opts, &rng);
  conv->SetFusedActivation(ops::EpiAct::kRelu);
  for (int64_t i = 0; i < opts.out_channels; ++i) {
    (*conv->mutable_bias())[i] = 0.07f * static_cast<float>(i % 9) - 0.3f;
  }
  return conv;
}

// Forward == oracle, bitwise, in every mode at threads {1, 4} and at both
// precisions (the conv runs fp32 at int8, so one fp32 oracle serves
// both). Returns the number of forwards checked.
int ExpectMatchesOracle(Conv2d* conv, const Tensor& x,
                        const std::string& what) {
  int checked = 0;
  for (ConvMode mode :
       {ConvMode::kFused, ConvMode::kUnfused, ConvMode::kTraining}) {
    const Tensor ref = Im2ColGemmOracle(*conv, x, mode);
    ops::SetFuseEpilogues(mode == ConvMode::kFused);
    for (Precision p : {Precision::kFp32, Precision::kInt8}) {
      conv->SetPrecision(p);
      for (int threads : {1, 4}) {
        ops::SetComputeThreads(threads);
        Tensor y = conv->Forward(x, mode == ConvMode::kTraining);
        EXPECT_EQ(y.size(), ref.size()) << what;
        if (y.size() != ref.size()) continue;
        EXPECT_TRUE(Bitwise(y.data(), ref.data(), y.size()))
            << what << " mode=" << static_cast<int>(mode)
            << " precision=" << PrecisionName(p) << " threads=" << threads;
        ++checked;
      }
    }
  }
  conv->SetPrecision(Precision::kFp32);
  return checked;
}

// The conv forward (implicit GEMM over a padded input, fp32 at both
// precisions) equals an independent Im2Col + GemmRefEx oracle bitwise,
// over strides, pads, kernels, odd and tiny inputs, rates, conv groups,
// fusion and training modes, precisions, batches and thread counts.
TEST(ConvContract, MatchesIm2ColGemmOracle) {
  GlobalStateGuard guard;
  constexpr int64_t kChannels = 8;
  struct Shape {
    int64_t h, w;
  };
  // Non-square, 1x1, and smaller than the 5x5 kernel.
  const Shape shapes[] = {{7, 5}, {1, 1}, {3, 2}};
  int checked = 0;
  for (int64_t cg : {int64_t{1}, int64_t{4}}) {
    for (int64_t kernel : {1, 3, 5}) {
      for (int64_t stride : {1, 2, 3}) {
        for (int64_t pad : {0, 1, 2}) {
          Conv2dOptions opts;
          opts.in_channels = kChannels;
          opts.out_channels = kChannels;
          opts.kernel = kernel;
          opts.stride = stride;
          opts.pad = pad;
          opts.groups = 4;
          opts.conv_groups = cg;
          auto conv = OracleConv(
              opts, static_cast<uint64_t>(cg * 100 + kernel * 10 +
                                          stride * 3 + pad));
          Rng rng(61);
          for (const Shape& s : shapes) {
            if (s.h + 2 * pad < kernel || s.w + 2 * pad < kernel) continue;
            for (double r : {0.25, 0.5, 1.0}) {
              conv->SetSliceRate(r);
              for (int64_t batch : {1, 3, 8}) {
                Tensor x = Tensor::Randn(
                    {batch, conv->active_in(), s.h, s.w}, &rng);
                checked += ExpectMatchesOracle(
                    conv.get(), x,
                    "conv_groups=" + std::to_string(cg) +
                        " kernel=" + std::to_string(kernel) +
                        " stride=" + std::to_string(stride) +
                        " pad=" + std::to_string(pad) + " input " +
                        std::to_string(s.h) + "x" + std::to_string(s.w) +
                        " r=" + std::to_string(r) +
                        " batch=" + std::to_string(batch));
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 2000);

  // Large enough for the GEMM's own cell split at batch 1 (2 row bands x
  // 2 column bands) and for the last panel to over-read the tail.
  for (int64_t stride : {1, 2, 3}) {
    Conv2dOptions opts;
    opts.in_channels = 32;
    opts.out_channels = 128;
    opts.stride = stride;
    opts.groups = 4;
    auto conv = OracleConv(opts, 70 + static_cast<uint64_t>(stride));
    Rng rng(71);
    for (double r : {0.5, 1.0}) {
      conv->SetSliceRate(r);
      for (int64_t batch : {1, 3}) {
        Tensor x = Tensor::Randn({batch, conv->active_in(), 21, 23}, &rng);
        ExpectMatchesOracle(conv.get(), x,
                            "large stride=" + std::to_string(stride) +
                                " r=" + std::to_string(r) +
                                " batch=" + std::to_string(batch));
      }
    }
  }

  // Out-channel counts that leave every partial last tile of both kernels
  // (rows 1-5 of the 6-row AVX2 tile, 1-3 of the 4-row portable one; 13
  // adds whole tiles before a 1-row one), so the live-row tiles are held
  // to the oracle at every residue.
  for (int64_t out : {1, 2, 3, 4, 5, 6, 7, 13}) {
    for (int64_t stride : {1, 2, 3}) {
      Conv2dOptions opts;
      opts.in_channels = 3;
      opts.out_channels = out;
      opts.stride = stride;
      opts.pad = 1;
      opts.groups = 1;
      auto conv =
          OracleConv(opts, 80 + static_cast<uint64_t>(out * 3 + stride));
      Rng rng(81);
      for (int64_t batch : {1, 3}) {
        Tensor x = Tensor::Randn({batch, 3, 9, 11}, &rng);
        ExpectMatchesOracle(conv.get(), x,
                            "out=" + std::to_string(out) +
                                " stride=" + std::to_string(stride) +
                                " batch=" + std::to_string(batch));
      }
    }
  }
}

TEST(GroupedConvDeathTest, RejectsIndivisibleChannels) {
  Rng rng(46);
  Conv2dOptions opts;
  opts.in_channels = 6;
  opts.out_channels = 8;
  opts.conv_groups = 4;  // 6 % 4 != 0
  EXPECT_DEATH(Conv2d layer(opts, &rng), "divide by groups");
}

TEST(GroupedConvDeathTest, RejectsSlicingGroupsInsideBranches) {
  Rng rng(47);
  Conv2dOptions opts;
  opts.in_channels = 8;
  opts.out_channels = 8;
  opts.groups = 4;        // slicing boundaries every 2 channels ...
  opts.conv_groups = 2;   // ... but branches are 4 wide
  EXPECT_DEATH(Conv2d layer(opts, &rng), "conv-group boundaries");
  opts.groups = 2;
  opts.slice_out = false;
  EXPECT_DEATH(Conv2d layer(opts, &rng), "slice_in == slice_out");
}

}  // namespace
}  // namespace ms
