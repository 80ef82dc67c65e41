#include "src/nn/gru.h"

#include <cmath>

#include "src/tensor/scratch.h"
#include "src/tensor/tensor_ops.h"

namespace ms {
namespace {

inline float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

constexpr int kGateR = 0;
constexpr int kGateZ = 1;
constexpr int kGateN = 2;

}  // namespace

Gru::Gru(GruOptions opts, Rng* rng, std::string name)
    : opts_(opts), name_(std::move(name)) {
  MS_CHECK(opts_.input_size >= 1 && opts_.hidden_size >= 1);
  in_spec_ = SliceSpec(opts_.input_size,
                       std::min<int64_t>(opts_.groups, opts_.input_size));
  hidden_spec_ = SliceSpec(opts_.hidden_size,
                           std::min<int64_t>(opts_.groups, opts_.hidden_size));
  active_in_ = opts_.input_size;
  active_hidden_ = opts_.hidden_size;

  const float bound = 1.0f / std::sqrt(static_cast<float>(opts_.hidden_size));
  wx_ = Tensor::RandUniform({3 * opts_.hidden_size, opts_.input_size}, rng,
                            -bound, bound);
  wh_ = Tensor::RandUniform({3 * opts_.hidden_size, opts_.hidden_size}, rng,
                            -bound, bound);
  bx_ = Tensor::Zeros({3 * opts_.hidden_size});
  bh_ = Tensor::Zeros({3 * opts_.hidden_size});
  wx_grad_ = Tensor::Zeros(wx_.shape());
  wh_grad_ = Tensor::Zeros(wh_.shape());
  bx_grad_ = Tensor::Zeros(bx_.shape());
  bh_grad_ = Tensor::Zeros(bh_.shape());
  for (int64_t g = 1; g <= in_spec_.num_groups(); ++g) {
    in_seg_ends_.push_back(in_spec_.GroupBoundary(g));
  }
  for (int64_t g = 1; g <= hidden_spec_.num_groups(); ++g) {
    hidden_seg_ends_.push_back(hidden_spec_.GroupBoundary(g));
  }
}

void Gru::DoSetSliceRate(double r) {
  active_in_ =
      opts_.slice_in ? in_spec_.ActiveWidth(r) : in_spec_.full_width();
  active_hidden_ = opts_.slice_out ? hidden_spec_.ActiveWidth(r)
                                   : hidden_spec_.full_width();
  if (opts_.rescale) {
    rescale_x_ = static_cast<float>(in_spec_.full_width()) /
                 static_cast<float>(active_in_);
    rescale_h_ = static_cast<float>(hidden_spec_.full_width()) /
                 static_cast<float>(active_hidden_);
  } else {
    rescale_x_ = rescale_h_ = 1.0f;
  }
}

void Gru::InputGemm(int gate, const float* x, int64_t batch, bool int8,
                    bool fuse, float* z) const {
  const int64_t n = active_hidden_;
  const int64_t m = active_in_;
  const float* bias = bx_.data() + gate * opts_.hidden_size;
  ops::Epilogue epi;
  if (fuse) {
    epi.bias = bias;
    epi.per_row = false;  // bias indexed by hidden unit == C column
  }
  if (int8) {
    ops::GemmQuantizedBEx(batch, n, m, rescale_x_, x, m, qwx_t_[gate], 0.0f,
                          z, n, epi);
  } else {
    ops::GemmPrepackedBEx(false, batch, n, m, rescale_x_, x, m,
                          wx_pack_t_[gate], 0.0f, z, n, epi);
  }
  if (!fuse) {
    for (int64_t b = 0; b < batch; ++b) {
      float* row = z + b * n;
      for (int64_t j = 0; j < n; ++j) row[j] += bias[j];
    }
  }
}

void Gru::HiddenGemm(int gate, const float* h, int64_t batch, bool int8,
                     bool fuse, float* z) const {
  const int64_t n = active_hidden_;
  const float* bias = bh_.data() + gate * opts_.hidden_size;
  ops::Epilogue epi;
  if (fuse) {
    epi.bias = bias;
    epi.per_row = false;
  }
  if (int8) {
    ops::GemmQuantizedBEx(batch, n, n, rescale_h_, h, n, qwh_t_[gate], 0.0f,
                          z, n, epi);
  } else {
    ops::GemmPrepackedBEx(false, batch, n, n, rescale_h_, h, n,
                          wh_pack_t_[gate], 0.0f, z, n, epi);
  }
  if (!fuse) {
    for (int64_t b = 0; b < batch; ++b) {
      float* row = z + b * n;
      for (int64_t j = 0; j < n; ++j) row[j] += bias[j];
    }
  }
}

Tensor Gru::DoForward(const Tensor& x, bool training) {
  MS_CHECK(x.ndim() == 3);
  const int64_t t_steps = x.dim(0);
  const int64_t batch = x.dim(1);
  MS_CHECK_MSG(x.dim(2) == active_in_, "Gru input width != active_in");
  const int64_t m = active_in_;
  const int64_t n = active_hidden_;

  cached_x_ = x;
  cached_t_ = t_steps;
  cached_b_ = batch;
  const int64_t bn = batch * n;
  const bool fuse = !training && ops::FuseEpiloguesEnabled();

  // Pack each gate's Wx/Wh once up front (a cache hit in steady state);
  // all T timesteps below reuse the panels. Int8 is inference-only;
  // training always contracts in fp32.
  const bool int8 = precision_ == Precision::kInt8 && !training;
  for (int gate = 0; gate < 3; ++gate) {
    if (int8) {
      ops::EnsureQuantizedB(
          true, opts_.input_size, opts_.hidden_size,
          wx_.data() + gate * opts_.hidden_size * opts_.input_size,
          opts_.input_size, in_seg_ends_, &qwx_t_[gate]);
      ops::EnsureQuantizedB(
          true, opts_.hidden_size, opts_.hidden_size,
          wh_.data() + gate * opts_.hidden_size * opts_.hidden_size,
          opts_.hidden_size, hidden_seg_ends_, &qwh_t_[gate]);
    } else {
      ops::EnsurePackedB(
          true, opts_.input_size, opts_.hidden_size,
          wx_.data() + gate * opts_.hidden_size * opts_.input_size,
          opts_.input_size, &wx_pack_t_[gate]);
      ops::EnsurePackedB(
          true, opts_.hidden_size, opts_.hidden_size,
          wh_.data() + gate * opts_.hidden_size * opts_.hidden_size,
          opts_.hidden_size, &wh_pack_t_[gate]);
    }
  }

  // Gate pre-activations and the zero initial state live on the arena; the
  // per-step caches in steps_ are resized in place, so warmed-up iterations
  // (fixed t_steps/batch) reuse all their storage and allocate nothing.
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(arena);
  float* xr = arena.Alloc(bn);
  float* xz = arena.Alloc(bn);
  float* xn = arena.Alloc(bn);
  float* hr = arena.Alloc(bn);
  float* hz = arena.Alloc(bn);
  float* hn = arena.Alloc(bn);
  const float* zeros = arena.AllocZeroed(bn);

  if (steps_.size() < static_cast<size_t>(t_steps)) {
    steps_.resize(static_cast<size_t>(t_steps));
  }

  Tensor out = Tensor::Uninit({t_steps, batch, n});
  for (int64_t t = 0; t < t_steps; ++t) {
    const float* xt = x.data() + t * batch * m;
    const float* h_prev = (t == 0) ? zeros : out.data() + (t - 1) * bn;
    InputGemm(kGateR, xt, batch, int8, fuse, xr);
    InputGemm(kGateZ, xt, batch, int8, fuse, xz);
    InputGemm(kGateN, xt, batch, int8, fuse, xn);
    HiddenGemm(kGateR, h_prev, batch, int8, fuse, hr);
    HiddenGemm(kGateZ, h_prev, batch, int8, fuse, hz);
    HiddenGemm(kGateN, h_prev, batch, int8, fuse, hn);

    float* h_out = out.data() + t * bn;
    StepCache& sc = steps_[static_cast<size_t>(t)];
    sc.r.EnsureShape({batch, n});
    sc.z.EnsureShape({batch, n});
    sc.n.EnsureShape({batch, n});
    sc.hn.EnsureShape({batch, n});
    sc.h.EnsureShape({batch, n});
    std::copy(hn, hn + bn, sc.hn.data());
    for (int64_t idx = 0; idx < bn; ++idx) {
      const float rv = Sigmoid(xr[idx] + hr[idx]);
      const float zv = Sigmoid(xz[idx] + hz[idx]);
      const float nv = std::tanh(xn[idx] + rv * hn[idx]);
      const float hv = (1.0f - zv) * nv + zv * h_prev[idx];
      sc.r[idx] = rv;
      sc.z[idx] = zv;
      sc.n[idx] = nv;
      sc.h[idx] = hv;
      h_out[idx] = hv;
    }
  }
  return out;
}

Tensor Gru::DoBackward(const Tensor& grad_out) {
  const int64_t t_steps = cached_t_;
  const int64_t batch = cached_b_;
  const int64_t m = active_in_;
  const int64_t n = active_hidden_;
  MS_CHECK(grad_out.ndim() == 3 && grad_out.dim(0) == t_steps &&
           grad_out.dim(1) == batch && grad_out.dim(2) == n);

  MS_CHECK_MSG(cached_x_.ndim() == 3,
               "Gru::Backward requires a prior Forward");
  // dx/dh consume op(B) = W; pack once, reuse across the reverse sweep.
  for (int gate = 0; gate < 3; ++gate) {
    ops::EnsurePackedB(
        false, opts_.hidden_size, opts_.input_size,
        wx_.data() + gate * opts_.hidden_size * opts_.input_size,
        opts_.input_size, &wx_pack_nt_[gate]);
    ops::EnsurePackedB(
        false, opts_.hidden_size, opts_.hidden_size,
        wh_.data() + gate * opts_.hidden_size * opts_.hidden_size,
        opts_.hidden_size, &wh_pack_nt_[gate]);
  }
  Tensor grad_in({t_steps, batch, m});
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(arena);
  const int64_t bn = batch * n;
  float* dh_next = arena.AllocZeroed(bn);
  // Pre-activation grads for the three input paths and three hidden paths.
  float* dxr = arena.Alloc(bn);
  float* dxz = arena.Alloc(bn);
  float* dxn = arena.Alloc(bn);
  float* dhr = arena.Alloc(bn);
  float* dhz = arena.Alloc(bn);
  float* dhn = arena.Alloc(bn);

  for (int64_t t = t_steps - 1; t >= 0; --t) {
    const StepCache& sc = steps_[static_cast<size_t>(t)];
    const float* h_prev =
        (t > 0) ? steps_[static_cast<size_t>(t - 1)].h.data() : nullptr;

    for (int64_t idx = 0; idx < batch * n; ++idx) {
      const float dh = grad_out[t * batch * n + idx] + dh_next[idx];
      const float rv = sc.r[idx];
      const float zv = sc.z[idx];
      const float nv = sc.n[idx];
      const float hp = h_prev ? h_prev[idx] : 0.0f;
      const float hnv = sc.hn[idx];

      const float dz = dh * (hp - nv);
      const float dn = dh * (1.0f - zv);
      float dh_prev_direct = dh * zv;

      const float dn_pre = dn * (1.0f - nv * nv);
      // n path: xn gets dn_pre; (r * hn) gets dn_pre.
      dxn[idx] = dn_pre;
      const float dr = dn_pre * hnv;
      dhn[idx] = dn_pre * rv;

      const float dz_pre = dz * zv * (1.0f - zv);
      const float dr_pre = dr * rv * (1.0f - rv);
      dxz[idx] = dz_pre;
      dxr[idx] = dr_pre;
      dhz[idx] = dz_pre;
      dhr[idx] = dr_pre;

      dh_next[idx] = dh_prev_direct;  // recurrent-path grads added below.
    }

    const float* xt = cached_x_.data() + t * batch * m;
    float* dxt = grad_in.data() + t * batch * m;
    std::fill(dxt, dxt + batch * m, 0.0f);

    const float* dx_gates[3] = {dxr, dxz, dxn};
    const float* dh_gates[3] = {dhr, dhz, dhn};
    for (int gate = 0; gate < 3; ++gate) {
      const float* dzx = dx_gates[gate];
      const float* dzh = dh_gates[gate];
      float* wxg = wx_grad_.data() + gate * opts_.hidden_size *
                                         opts_.input_size;
      float* whg = wh_grad_.data() + gate * opts_.hidden_size *
                                         opts_.hidden_size;
      float* bxg = bx_grad_.data() + gate * opts_.hidden_size;
      float* bhg = bh_grad_.data() + gate * opts_.hidden_size;

      // Input path.
      ops::Gemm(true, false, n, m, batch, rescale_x_, dzx, n, xt, m, 1.0f,
                wxg, opts_.input_size);
      for (int64_t b = 0; b < batch; ++b) {
        const float* row = dzx + b * n;
        for (int64_t j = 0; j < n; ++j) bxg[j] += row[j];
      }
      ops::GemmPrepackedB(false, batch, m, n, rescale_x_, dzx, n,
                          wx_pack_nt_[gate], 1.0f, dxt, m);

      // Hidden path.
      if (h_prev != nullptr) {
        ops::Gemm(true, false, n, n, batch, rescale_h_, dzh, n, h_prev, n,
                  1.0f, whg, opts_.hidden_size);
      }
      for (int64_t b = 0; b < batch; ++b) {
        const float* row = dzh + b * n;
        for (int64_t j = 0; j < n; ++j) bhg[j] += row[j];
      }
      ops::GemmPrepackedB(false, batch, n, n, rescale_h_, dzh, n,
                          wh_pack_nt_[gate], 1.0f, dh_next, n);
    }
  }
  return grad_in;
}

void Gru::CollectParams(std::vector<ParamRef>* out) {
  out->push_back({name_ + ".wx", &wx_, &wx_grad_, /*no_decay=*/false});
  out->push_back({name_ + ".wh", &wh_, &wh_grad_, /*no_decay=*/false});
  out->push_back({name_ + ".bx", &bx_, &bx_grad_, /*no_decay=*/true});
  out->push_back({name_ + ".bh", &bh_, &bh_grad_, /*no_decay=*/true});
}

int64_t Gru::FlopsPerSample() const {
  return 3 * (active_in_ * active_hidden_ + active_hidden_ * active_hidden_);
}

int64_t Gru::ActiveParams() const {
  return 3 * (active_in_ * active_hidden_ +
              active_hidden_ * active_hidden_ + 2 * active_hidden_);
}

}  // namespace ms
