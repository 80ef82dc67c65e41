#include "src/nn/dense.h"

#include <cmath>

#include "src/tensor/gemm.h"
#include "src/tensor/tensor_ops.h"

namespace ms {

Dense::Dense(DenseOptions opts, Rng* rng, std::string name)
    : opts_(opts), name_(std::move(name)) {
  MS_CHECK(opts_.in_features >= 1 && opts_.out_features >= 1);
  MS_CHECK(opts_.in_unit >= 1);
  MS_CHECK_MSG(opts_.in_features % opts_.in_unit == 0,
               "in_features must be a multiple of in_unit");
  const int64_t in_units = opts_.in_features / opts_.in_unit;
  in_spec_ = SliceSpec(in_units, std::min<int64_t>(opts_.groups, in_units));
  out_spec_ = SliceSpec(opts_.out_features,
                        std::min<int64_t>(opts_.groups, opts_.out_features));
  active_in_units_ = in_units;
  active_out_ = opts_.out_features;

  // Kaiming-uniform fan-in init, matching common practice for ReLU nets.
  const float bound =
      std::sqrt(6.0f / static_cast<float>(opts_.in_features));
  w_ = Tensor::RandUniform({opts_.out_features, opts_.in_features}, rng,
                           -bound, bound);
  w_grad_ = Tensor::Zeros({opts_.out_features, opts_.in_features});
  if (opts_.bias) {
    b_ = Tensor::Zeros({opts_.out_features});
    b_grad_ = Tensor::Zeros({opts_.out_features});
  }
  for (int64_t g = 1; g <= in_spec_.num_groups(); ++g) {
    in_seg_ends_.push_back(in_spec_.GroupBoundary(g) * opts_.in_unit);
  }
}

void Dense::DoSetSliceRate(double r) {
  active_in_units_ =
      opts_.slice_in ? in_spec_.ActiveWidth(r) : in_spec_.full_width();
  active_out_ =
      opts_.slice_out ? out_spec_.ActiveWidth(r) : out_spec_.full_width();
  rescale_factor_ =
      opts_.rescale
          ? static_cast<float>(in_spec_.full_width()) /
                static_cast<float>(active_in_units_)
          : 1.0f;
}

Tensor Dense::DoForward(const Tensor& x, bool training) {
  const int64_t m = active_in();
  const int64_t n = active_out_;
  MS_CHECK(x.ndim() == 2);
  MS_CHECK_MSG(x.dim(1) == m, "Dense input width != active_in");
  const int64_t batch = x.dim(0);
  cached_x_ = x;

  // Inference fuses bias (and the following activation, when the fusion
  // pass planted one) into the GEMM's C-writeback; training keeps the
  // separate bias pass so the fused/unfused split stays bitwise-testable.
  const bool fuse = !training && ops::FuseEpiloguesEnabled();
  ops::Epilogue epi;
  if (fuse) {
    if (opts_.bias) epi.bias = b_.data();
    epi.act = fused_act_;
    epi.per_row = false;  // bias/act indexed by output column
  }
  Tensor y = Tensor::Uninit({batch, n});
  // y(B,n) = x(B,m) * W[0:n, 0:m]^T — W^T packed once, sliced by prefix.
  // Int8 is inference-only; training always contracts in fp32.
  if (precision_ == Precision::kInt8 && !training) {
    ops::EnsureQuantizedB(/*trans_b=*/true, opts_.in_features,
                          opts_.out_features, w_.data(), opts_.in_features,
                          in_seg_ends_, &qpack_t_);
    ops::GemmQuantizedBEx(batch, n, m, rescale_factor_, x.data(), m,
                          qpack_t_, 0.0f, y.data(), n, epi);
  } else {
    ops::EnsurePackedB(/*trans_b=*/true, opts_.in_features,
                       opts_.out_features, w_.data(), opts_.in_features,
                       &wpack_t_);
    ops::GemmPrepackedBEx(/*trans_a=*/false, batch, n, m, rescale_factor_,
                          x.data(), m, wpack_t_, 0.0f, y.data(), n, epi);
  }
  if (opts_.bias && !fuse) {
    const float* bias = b_.data();
    float* yd = y.data();
    ops::ParallelForCompute(batch, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        float* row = yd + i * n;
        for (int64_t j = 0; j < n; ++j) row[j] += bias[j];
      }
    });
  }
  return y;
}

Tensor Dense::DoBackward(const Tensor& grad_out) {
  const int64_t m = active_in();
  const int64_t n = active_out_;
  MS_CHECK(grad_out.ndim() == 2 && grad_out.dim(1) == n);
  const int64_t batch = grad_out.dim(0);
  MS_CHECK(cached_x_.dim(0) == batch);

  // dW[0:n, 0:m] += g^T(n,B) * x(B,m), scaled by the rescale factor.
  ops::Gemm(/*trans_a=*/true, /*trans_b=*/false, n, m, batch,
            rescale_factor_, grad_out.data(), n, cached_x_.data(), m, 1.0f,
            w_grad_.data(), opts_.in_features);
  if (opts_.bias) {
    // Column-sharded reduction: each task owns columns [j0, j1) and sums
    // rows in ascending i — the serial order — so the result is bitwise
    // identical at any thread count.
    const float* gd = grad_out.data();
    float* bg = b_grad_.data();
    ops::ParallelForCompute(n, [&](int64_t j0, int64_t j1) {
      for (int64_t i = 0; i < batch; ++i) {
        const float* row = gd + i * n;
        for (int64_t j = j0; j < j1; ++j) bg[j] += row[j];
      }
    });
  }

  // dx(B,m) = g(B,n) * W[0:n, 0:m]
  Tensor grad_in({batch, m});
  ops::EnsurePackedB(/*trans_b=*/false, opts_.out_features,
                     opts_.in_features, w_.data(), opts_.in_features,
                     &wpack_nt_);
  ops::GemmPrepackedB(/*trans_a=*/false, batch, m, n, rescale_factor_,
                      grad_out.data(), n, wpack_nt_, 0.0f, grad_in.data(),
                      m);
  return grad_in;
}

void Dense::CollectParams(std::vector<ParamRef>* out) {
  out->push_back({name_ + ".w", &w_, &w_grad_, /*no_decay=*/false});
  if (opts_.bias) {
    out->push_back({name_ + ".b", &b_, &b_grad_, /*no_decay=*/true});
  }
}

int64_t Dense::FlopsPerSample() const {
  return active_in() * active_out_;
}

int64_t Dense::ActiveParams() const {
  return active_in() * active_out_ + (opts_.bias ? active_out_ : 0);
}

}  // namespace ms
