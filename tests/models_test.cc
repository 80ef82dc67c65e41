// Structural tests for the model builders and the zoo: output shapes,
// slicing propagation, parameter sharing, config validation, and the
// batch-invariance contract.
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/models/cnn.h"
#include "src/models/mlp.h"
#include "src/models/nnlm.h"
#include "src/models/zoo.h"
#include "src/nn/dense.h"
#include "src/nn/gru.h"
#include "src/nn/lstm.h"
#include "src/tensor/epilogue.h"
#include "src/tensor/gemm.h"
#include "src/util/rng.h"

namespace ms {
namespace {

CnnConfig SmallCnn() {
  CnnConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 7;
  cfg.base_width = 8;
  cfg.stages = 2;
  cfg.blocks_per_stage = 1;
  cfg.slice_groups = 4;
  cfg.seed = 1;
  return cfg;
}

TEST(VggSmall, OutputShapeIsClassLogits) {
  auto net = MakeVggSmall(SmallCnn()).MoveValueOrDie();
  Rng rng(2);
  Tensor x = Tensor::Randn({5, 3, 8, 8}, &rng);
  for (double r : {0.25, 0.5, 1.0}) {
    net->SetSliceRate(r);
    Tensor y = net->Forward(x, false);
    EXPECT_EQ(y.shape(), (std::vector<int64_t>{5, 7})) << "rate " << r;
  }
}

TEST(ResNet, OutputShapeIsClassLogits) {
  auto net = MakeResNet(SmallCnn()).MoveValueOrDie();
  Rng rng(3);
  Tensor x = Tensor::Randn({4, 3, 8, 8}, &rng);
  for (double r : {0.25, 0.5, 1.0}) {
    net->SetSliceRate(r);
    Tensor y = net->Forward(x, false);
    EXPECT_EQ(y.shape(), (std::vector<int64_t>{4, 7})) << "rate " << r;
  }
}

TEST(MobileNet, OutputShapeIsClassLogits) {
  auto net = MakeMobileNetSmall(SmallCnn()).MoveValueOrDie();
  Rng rng(4);
  Tensor x = Tensor::Randn({3, 3, 8, 8}, &rng);
  for (double r : {0.25, 0.5, 1.0}) {
    net->SetSliceRate(r);
    Tensor y = net->Forward(x, false);
    EXPECT_EQ(y.shape(), (std::vector<int64_t>{3, 7})) << "rate " << r;
  }
}

TEST(ResNeXt, OutputShapeAndWidthsDivisibleByBranches) {
  auto cfg = SmallCnn();
  cfg.slice_groups = 4;
  auto net = MakeResNeXtSmall(cfg).MoveValueOrDie();
  Rng rng(13);
  Tensor x = Tensor::Randn({2, 3, 8, 8}, &rng);
  for (double r : {0.25, 0.5, 1.0}) {
    net->SetSliceRate(r);
    Tensor y = net->Forward(x, false);
    EXPECT_EQ(y.shape(), (std::vector<int64_t>{2, 7})) << "rate " << r;
    Tensor g = Tensor::Randn(y.shape(), &rng);
    Tensor gx = net->Backward(g);
    EXPECT_EQ(gx.shape(), x.shape());
  }
}

TEST(Models, BackwardRunsAtEveryRate) {
  for (int kind = 0; kind < 4; ++kind) {
    auto net = (kind == 0   ? MakeVggSmall(SmallCnn())
                : kind == 1 ? MakeResNet(SmallCnn())
                : kind == 2 ? MakeResNeXtSmall(SmallCnn())
                            : MakeMobileNetSmall(SmallCnn()))
                   .MoveValueOrDie();
    Rng rng(5);
    Tensor x = Tensor::Randn({2, 3, 8, 8}, &rng);
    for (double r : {0.25, 0.75, 1.0}) {
      net->SetSliceRate(r);
      Tensor y = net->Forward(x, true);
      Tensor g = Tensor::Randn(y.shape(), &rng);
      Tensor gx = net->Backward(g);
      EXPECT_EQ(gx.shape(), x.shape()) << "kind " << kind << " r " << r;
    }
  }
}

TEST(Models, ParamCountMatchesCollectParams) {
  auto net = MakeVggSmall(SmallCnn()).MoveValueOrDie();
  std::vector<ParamRef> params;
  net->CollectParams(&params);
  EXPECT_FALSE(params.empty());
  int64_t total = 0;
  for (const auto& p : params) {
    EXPECT_EQ(p.param->size(), p.grad->size());
    total += p.param->size();
  }
  // Full-rate active params must not exceed the total storage.
  net->SetSliceRate(1.0);
  Rng rng(6);
  Tensor x = Tensor::Randn({1, 3, 8, 8}, &rng);
  net->Forward(x, false);
  EXPECT_LE(net->ActiveParams(), total);
  EXPECT_GT(net->ActiveParams(), total / 2);
}

TEST(Models, SubnetParametersAreSharedPrefixes) {
  // Key slicing property: running at a small rate then at the full rate
  // leaves parameters untouched, and gradients at rate r live only in the
  // active prefix.
  auto net = MakeVggSmall(SmallCnn()).MoveValueOrDie();
  std::vector<ParamRef> params;
  net->CollectParams(&params);
  Rng rng(7);
  Tensor x = Tensor::Randn({2, 3, 8, 8}, &rng);

  net->SetSliceRate(0.25);
  Tensor y = net->Forward(x, true);
  Tensor g = Tensor::Full(y.shape(), 1.0f);
  for (auto& p : params) p.grad->Zero();
  net->Backward(g);

  // Some gradient entries must be exactly zero (inactive suffix) and some
  // non-zero (active prefix) for the big conv weights.
  int64_t zeros = 0, nonzeros = 0;
  for (const auto& p : params) {
    for (int64_t i = 0; i < p.grad->size(); ++i) {
      if ((*p.grad)[i] == 0.0f) {
        ++zeros;
      } else {
        ++nonzeros;
      }
    }
  }
  EXPECT_GT(zeros, nonzeros);  // at r=0.25 most parameters are inactive
  EXPECT_GT(nonzeros, 0);
}

TEST(Mlp, RejectsBadConfigs) {
  MlpConfig cfg;
  EXPECT_FALSE(MakeMlp(cfg).ok());  // zero dims
  cfg.in_features = 4;
  cfg.num_classes = 3;
  cfg.hidden = {};
  EXPECT_FALSE(MakeMlp(cfg).ok());
  cfg.hidden = {0};
  EXPECT_FALSE(MakeMlp(cfg).ok());
}

TEST(Cnn, RejectsBadConfigs) {
  CnnConfig cfg = SmallCnn();
  cfg.num_classes = 1;
  EXPECT_FALSE(MakeVggSmall(cfg).ok());
  cfg = SmallCnn();
  cfg.width_mult = 0.0;
  EXPECT_FALSE(MakeResNet(cfg).ok());
  cfg = SmallCnn();
  cfg.norm = NormKind::kMultiBatch;  // without rates
  EXPECT_FALSE(MakeVggSmall(cfg).ok());
}

TEST(Zoo, AllModelsBuildAndForward) {
  for (const auto& name : ListZooModels()) {
    const ZooEntry entry = GetZooModel(name).MoveValueOrDie();
    auto net = (entry.is_resnet ? MakeResNet(entry.config)
                                : MakeVggSmall(entry.config))
                   .MoveValueOrDie();
    const auto dopts = ZooDatasetOptions(entry.dataset);
    Rng rng(8);
    Tensor x = Tensor::Randn({1, dopts.channels, dopts.height, dopts.width},
                             &rng);
    net->SetSliceRate(0.5);
    Tensor y = net->Forward(x, false);
    EXPECT_EQ(y.dim(1), entry.config.num_classes) << name;
  }
  EXPECT_FALSE(GetZooModel("nope").ok());
}

TEST(Nnlm, LogitShapeAndFlopsMonotone) {
  NnlmConfig cfg;
  cfg.vocab_size = 30;
  cfg.embed_dim = 16;
  cfg.hidden = 16;
  cfg.num_layers = 2;
  cfg.slice_groups = 4;
  cfg.dropout = 0.0;
  auto model = Nnlm::Make(cfg).MoveValueOrDie();
  std::vector<int> tokens(4 * 3, 1);
  int64_t prev_flops = 0;
  for (double r : {0.25, 0.5, 0.75, 1.0}) {
    model->SetSliceRate(r);
    Tensor logits = model->Forward(tokens, 4, 3, false);
    EXPECT_EQ(logits.shape(), (std::vector<int64_t>{12, 30}));
    EXPECT_GT(model->FlopsPerToken(), prev_flops);
    prev_flops = model->FlopsPerToken();
  }
}

TEST(ScaledWidth, RoundsAndClamps) {
  EXPECT_EQ(ScaledWidth(16, 0.5), 8);
  EXPECT_EQ(ScaledWidth(16, 1.0), 16);
  EXPECT_EQ(ScaledWidth(3, 0.01), 1);  // clamped to >= 1
  EXPECT_EQ(ScaledWidth(10, 0.25), 3); // round(2.5) == 3 (llround up)
}

// Item i along `batch_dim` of an (outer..., batch, inner...) tensor, as a
// tensor with a batch of one.
Tensor TakeBatchItem(const Tensor& t, size_t batch_dim, int64_t i) {
  std::vector<int64_t> shape = t.shape();
  const int64_t batch = shape[batch_dim];
  int64_t outer = 1, inner = 1;
  for (size_t d = 0; d < batch_dim; ++d) outer *= shape[d];
  for (size_t d = batch_dim + 1; d < shape.size(); ++d) inner *= shape[d];
  shape[batch_dim] = 1;
  Tensor item(shape);
  for (int64_t o = 0; o < outer; ++o) {
    std::memcpy(item.data() + o * inner, t.data() + (o * batch + i) * inner,
                static_cast<size_t>(inner) * sizeof(float));
  }
  return item;
}

struct BatchInvariantCase {
  std::string name;
  std::unique_ptr<Module> net;
  /// Input shape at the current slice rate, with the batch dimension set.
  std::function<std::vector<int64_t>(int64_t batch)> input_shape;
  size_t batch_dim;  ///< 0 for (B, ...) inputs, 1 for (T, B, F) sequences.
};

std::vector<BatchInvariantCase> BatchInvariantCases() {
  std::vector<BatchInvariantCase> cases;
  const auto image = [](int64_t b) { return std::vector<int64_t>{b, 3, 8, 8}; };

  DenseOptions dopts;
  dopts.in_features = 24;
  dopts.out_features = 40;
  dopts.groups = 4;
  Rng rng(90);
  auto dense = std::make_unique<Dense>(dopts, &rng, "dense");
  Dense* d = dense.get();
  cases.push_back({"dense", std::move(dense),
                   [d](int64_t b) {
                     return std::vector<int64_t>{b, d->active_in()};
                   },
                   0});

  constexpr int64_t kSteps = 3;
  LstmOptions lopts;
  lopts.input_size = 12;
  lopts.hidden_size = 16;
  lopts.groups = 4;
  auto lstm = std::make_unique<Lstm>(lopts, &rng, "lstm");
  Lstm* l = lstm.get();
  cases.push_back({"lstm", std::move(lstm),
                   [l](int64_t b) {
                     return std::vector<int64_t>{kSteps, b, l->active_in()};
                   },
                   1});

  GruOptions gopts;
  gopts.input_size = 12;
  gopts.hidden_size = 16;
  gopts.groups = 4;
  auto gru = std::make_unique<Gru>(gopts, &rng, "gru");
  Gru* g = gru.get();
  cases.push_back({"gru", std::move(gru),
                   [g](int64_t b) {
                     return std::vector<int64_t>{kSteps, b, g->active_in()};
                   },
                   1});

  MlpConfig mcfg;
  mcfg.in_features = 12;
  mcfg.hidden = {32, 32};
  mcfg.num_classes = 5;
  mcfg.slice_groups = 4;
  mcfg.group_norm = true;
  cases.push_back({"mlp-groupnorm", MakeMlp(mcfg).MoveValueOrDie(),
                   [](int64_t b) { return std::vector<int64_t>{b, 12}; }, 0});

  CnnConfig vgg_bn = SmallCnn();
  vgg_bn.norm = NormKind::kBatch;
  cases.push_back(
      {"vgg-groupnorm", MakeVggSmall(SmallCnn()).MoveValueOrDie(), image, 0});
  cases.push_back(
      {"vgg-batchnorm", MakeVggSmall(vgg_bn).MoveValueOrDie(), image, 0});
  cases.push_back(
      {"resnet", MakeResNet(SmallCnn()).MoveValueOrDie(), image, 0});
  return cases;
}

// Batch invariance as a contract: item i of Forward(batch) is bitwise
// Forward(item i), for the layers with an int8 path and for whole models,
// at both precisions, thread counts {1, 4}, fusion on and off, and several
// rates and batch sizes.
TEST(ModelContract, BatchInvariant) {
  const int saved_threads = ops::ComputeThreads();
  const bool saved_fuse = ops::FuseEpiloguesEnabled();
  int checked = 0;
  for (BatchInvariantCase& c : BatchInvariantCases()) {
    Rng rng(91);
    for (Precision p : {Precision::kFp32, Precision::kInt8}) {
      c.net->SetPrecision(p);
      for (int threads : {1, 4}) {
        ops::SetComputeThreads(threads);
        for (bool fuse : {true, false}) {
          ops::SetFuseEpilogues(fuse);
          for (double r : {0.25, 0.5, 1.0}) {
            c.net->SetSliceRate(r);
            for (int64_t batch : {2, 5, 8, 32}) {
              Tensor x = Tensor::Randn(c.input_shape(batch), &rng);
              const Tensor y = c.net->Forward(x, /*training=*/false);
              for (int64_t i = 0; i < batch; ++i) {
                const Tensor yi = c.net->Forward(
                    TakeBatchItem(x, c.batch_dim, i), /*training=*/false);
                const Tensor want = TakeBatchItem(y, c.batch_dim, i);
                ASSERT_EQ(yi.shape(), want.shape()) << c.name;
                EXPECT_EQ(std::memcmp(yi.data(), want.data(),
                                      static_cast<size_t>(yi.size()) *
                                          sizeof(float)),
                          0)
                    << c.name << " item " << i << " of " << batch
                    << " r=" << r << " threads=" << threads
                    << " fuse=" << fuse << " precision=" << PrecisionName(p);
                ++checked;
              }
            }
          }
        }
      }
    }
  }
  ops::SetComputeThreads(saved_threads);
  ops::SetFuseEpilogues(saved_fuse);
  EXPECT_EQ(checked, 7 * 2 * 2 * 2 * 3 * (2 + 5 + 8 + 32));
}

}  // namespace
}  // namespace ms
