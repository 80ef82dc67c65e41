#include "src/nn/conv2d.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/scratch.h"

namespace ms {

namespace {
// Fixed shard count for the weight-gradient reduction in DoBackward. A
// constant (rather than the pool size) keeps the accumulation order — and
// therefore the bitwise result — independent of the thread count.
constexpr int64_t kGradShards = 8;
}  // namespace

Conv2d::Conv2d(Conv2dOptions opts, Rng* rng, std::string name)
    : opts_(opts), name_(std::move(name)) {
  MS_CHECK(opts_.in_channels >= 1 && opts_.out_channels >= 1);
  MS_CHECK(opts_.kernel >= 1 && opts_.stride >= 1 && opts_.pad >= 0);
  const int64_t cg = opts_.conv_groups;
  MS_CHECK(cg >= 1);
  MS_CHECK_MSG(opts_.in_channels % cg == 0,
               "in_channels must divide by groups (conv_groups)");
  MS_CHECK_MSG(opts_.out_channels % cg == 0,
               "out_channels must divide by groups (conv_groups)");
  in_spec_ = SliceSpec(opts_.in_channels,
                       std::min<int64_t>(opts_.groups, opts_.in_channels));
  out_spec_ = SliceSpec(opts_.out_channels,
                        std::min<int64_t>(opts_.groups, opts_.out_channels));
  active_in_ = opts_.in_channels;
  active_out_ = opts_.out_channels;

  const int64_t in_pg = opts_.in_channels / cg;
  const int64_t out_pg = opts_.out_channels / cg;
  const int64_t kk = opts_.kernel * opts_.kernel;
  const int64_t fan_in = in_pg * kk;
  if (cg > 1) {
    // A slice must keep whole branches on both sides of the layer.
    MS_CHECK_MSG(opts_.slice_in == opts_.slice_out,
                 "conv_groups > 1 needs slice_in == slice_out");
    bool aligned = in_spec_.num_groups() == out_spec_.num_groups();
    for (int64_t g = 1; aligned && g < in_spec_.num_groups(); ++g) {
      const int64_t b = in_spec_.GroupBoundary(g);
      aligned = b % in_pg == 0 &&
                b / in_pg * out_pg == out_spec_.GroupBoundary(g);
    }
    MS_CHECK_MSG(aligned,
                 "slicing groups must fall on conv-group boundaries");
    depthwise_ = in_pg == 1 && out_pg == 1;
    MS_CHECK_MSG(!(depthwise_ && opts_.bias), "depthwise conv has no bias");
  }

  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  w_ = Tensor::Randn({opts_.out_channels, fan_in}, rng, stddev);
  w_grad_ = Tensor::Zeros({opts_.out_channels, fan_in});
  if (opts_.bias) {
    b_ = Tensor::Zeros({opts_.out_channels});
    b_grad_ = Tensor::Zeros({opts_.out_channels});
  }
  const size_t packs = depthwise_ ? 0 : static_cast<size_t>(cg);
  wpacks_.resize(packs);
  wpacks_t_.resize(packs);
}

void Conv2d::DoSetSliceRate(double r) {
  active_in_ =
      opts_.slice_in ? in_spec_.ActiveWidth(r) : in_spec_.full_width();
  active_out_ =
      opts_.slice_out ? out_spec_.ActiveWidth(r) : out_spec_.full_width();
}

int64_t Conv2d::ActiveConvGroups() const {
  if (opts_.conv_groups == 1) return 1;
  return active_in_ / (opts_.in_channels / opts_.conv_groups);
}

Tensor Conv2d::DoForward(const Tensor& x, bool training) {
  MS_CHECK(x.ndim() == 4);
  const int64_t batch = x.dim(0);
  MS_CHECK_MSG(x.dim(1) == active_in_, "Conv2d input channels != active_in");
  const int64_t h = x.dim(2);
  const int64_t w = x.dim(3);
  const int64_t k = opts_.kernel;
  // Checked before the division: C++ truncates toward zero, so a window
  // one short of the kernel would otherwise still yield oh == 1.
  MS_CHECK_MSG(h + 2 * opts_.pad >= k && w + 2 * opts_.pad >= k,
               "Conv2d kernel larger than the padded input");
  const int64_t oh = (h + 2 * opts_.pad - k) / opts_.stride + 1;
  const int64_t ow = (w + 2 * opts_.pad - k) / opts_.stride + 1;

  // Copy-assign reuses capacity when shapes repeat, so steady-state
  // forwards stay allocation-free.
  cached_x_ = x;
  cached_h_ = h;
  cached_w_ = w;
  last_oh_ = oh;
  last_ow_ = ow;

  // Inference fuses bias (per output channel == C row) and any planted
  // activation into the GEMM's C-writeback; training keeps the separate
  // bias pass.
  const bool fuse = !training && ops::FuseEpiloguesEnabled();
  if (depthwise_) {
    return DepthwiseForward(x, fuse ? fused_act_ : ops::EpiAct::kNone);
  }
  ops::Epilogue epi;
  if (fuse) {
    if (opts_.bias) epi.bias = b_.data();
    epi.act = fused_act_;
    epi.per_row = true;
  }

  // Each active conv group contracts m input channels into n outputs.
  const int64_t groups = ActiveConvGroups();
  const int64_t m = active_in_ / groups;
  const int64_t n = active_out_ / groups;
  const int64_t out_area = oh * ow;
  const int64_t ld_w = w_.dim(1);
  const int64_t out_pg = opts_.out_channels / opts_.conv_groups;

  Tensor y = Tensor::Uninit({batch, active_out_, oh, ow});
  const float* xd = x.data();
  float* yd = y.data();
  // Pack each active group's W once, outside the parallel region (workers
  // then only read).
  for (int64_t g = 0; g < groups; ++g) {
    ops::EnsurePackedA(/*trans_a=*/false, out_pg, ld_w,
                       w_.data() + g * out_pg * ld_w, ld_w,
                       &wpacks_[static_cast<size_t>(g)]);
  }
  // Parallel over images: each worker owns one input buffer from its own
  // arena; output planes are disjoint. Groups run serially inside each
  // image. With batch == 1 the single shard runs on the caller, where the
  // GEMM itself may go parallel. The GEMM contracts straight from a
  // zero-padded copy of the group's channels (implicit GEMM, see
  // PaddedConvInput).
  const ops::PaddedConvInput geo =
      ops::MakePaddedConvInput(m, h, w, k, opts_.stride, opts_.pad);
  ops::ParallelForCompute(batch, [&](int64_t b0, int64_t b1) {
    ScratchArena& arena = ScratchArena::ForThread();
    ScratchArena::Scope scope(arena);
    // The padded buffer is zeroed once; each image rewrites only its
    // interior, so the padding and the tail stay zero.
    float* buf = arena.AllocZeroed(geo.floats);
    for (int64_t img = b0; img < b1; ++img) {
      for (int64_t g = 0; g < groups; ++g) {
        const float* xg = xd + (img * active_in_ + g * m) * h * w;
        // y_g(n, out_area) = W_g[0:n, 0:m*k*k] * im2col(x_g). The prefix
        // of the full-stride pack keeps the inactive input-channel
        // columns out.
        float* yg = yd + (img * active_out_ + g * n) * out_area;
        ops::Epilogue epi_g = epi;
        if (epi_g.bias != nullptr) epi_g.bias += g * n;
        ops::CopyPaddedInterior(geo, xg, buf);
        ops::GemmPrepackedAConv(n, wpacks_[static_cast<size_t>(g)], geo, buf,
                                yg, epi_g);
      }
      if (opts_.bias && !fuse) {
        float* yi = yd + img * active_out_ * out_area;
        for (int64_t c = 0; c < active_out_; ++c) {
          const float bv = b_[c];
          float* plane = yi + c * out_area;
          for (int64_t p = 0; p < out_area; ++p) plane[p] += bv;
        }
      }
    }
  });
  return y;
}

Tensor Conv2d::DoBackward(const Tensor& grad_out) {
  MS_CHECK_MSG(cached_x_.ndim() == 4,
               "Conv2d::Backward requires a prior Forward");
  const int64_t batch = cached_x_.dim(0);
  const int64_t h = cached_h_;
  const int64_t w = cached_w_;
  const int64_t k = opts_.kernel;
  const int64_t oh = last_oh_;
  const int64_t ow = last_ow_;
  const int64_t out_area = oh * ow;
  MS_CHECK(grad_out.ndim() == 4 && grad_out.dim(0) == batch &&
           grad_out.dim(1) == active_out_ && grad_out.dim(2) == oh &&
           grad_out.dim(3) == ow);
  if (depthwise_) return DepthwiseBackward(grad_out);

  const int64_t groups = ActiveConvGroups();
  const int64_t m = active_in_ / groups;
  const int64_t n = active_out_ / groups;
  const int64_t col_rows = m * k * k;
  const int64_t ld_w = w_.dim(1);
  const int64_t out_pg = opts_.out_channels / opts_.conv_groups;
  Tensor grad_in({batch, active_in_, h, w});

  // dW is a sum over images, so images are split across a *fixed* shard
  // grid; each shard accumulates into a compact private buffer and the
  // shards are reduced serially in index order afterwards. Result is
  // bitwise identical for any thread count (incl. the serial path).
  const int64_t shards = std::min<int64_t>(batch, kGradShards);
  const int64_t chunk = (batch + shards - 1) / shards;
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(arena);
  // Row r of a shard buffer holds output channel r's col_rows weights.
  const int64_t wg_size = active_out_ * col_rows;
  float* wg_shards = arena.Alloc(shards * wg_size);
  float* bg_shards = opts_.bias ? arena.Alloc(shards * active_out_) : nullptr;

  const float* xd = cached_x_.data();
  const float* gd = grad_out.data();
  float* gid = grad_in.data();
  // dcols consumes op(A) = W_g^T; pack once before the shard fan-out.
  for (int64_t g = 0; g < groups; ++g) {
    ops::EnsurePackedA(/*trans_a=*/true, ld_w, out_pg,
                       w_.data() + g * out_pg * ld_w, ld_w,
                       &wpacks_t_[static_cast<size_t>(g)]);
  }
  ops::ParallelForCompute(shards, [&](int64_t s0, int64_t s1) {
    ScratchArena& warena = ScratchArena::ForThread();
    ScratchArena::Scope wscope(warena);
    float* cols = warena.Alloc(col_rows * out_area);
    float* grad_cols = warena.Alloc(col_rows * out_area);
    for (int64_t s = s0; s < s1; ++s) {
      float* wg = wg_shards + s * wg_size;
      std::fill(wg, wg + wg_size, 0.0f);
      float* bg = bg_shards ? bg_shards + s * active_out_ : nullptr;
      if (bg) std::fill(bg, bg + active_out_, 0.0f);
      const int64_t img0 = s * chunk;
      const int64_t img1 = std::min<int64_t>(batch, img0 + chunk);
      for (int64_t img = img0; img < img1; ++img) {
        for (int64_t g = 0; g < groups; ++g) {
          const float* gg = gd + (img * active_out_ + g * n) * out_area;
          const int64_t in_off = (img * active_in_ + g * m) * h * w;
          // dW_g(n, col_rows) += gg(n, out_area) * cols^T
          ops::Im2Col(xd + in_off, m, h, w, k, opts_.stride, opts_.pad, cols);
          ops::Gemm(false, true, n, col_rows, out_area, 1.0f, gg, out_area,
                    cols, out_area, 1.0f, wg + g * n * col_rows, col_rows);
          // dcols = W_g^T(col_rows, n) * gg(n, out_area)
          ops::GemmPrepackedA(col_rows, out_area, n,
                              wpacks_t_[static_cast<size_t>(g)], false, gg,
                              out_area, 0.0f, grad_cols, out_area);
          ops::Col2Im(grad_cols, m, h, w, k, opts_.stride, opts_.pad,
                      gid + in_off);
        }
        if (bg) {
          const float* gi = gd + img * active_out_ * out_area;
          for (int64_t c = 0; c < active_out_; ++c) {
            const float* plane = gi + c * out_area;
            float acc = 0.0f;
            for (int64_t p = 0; p < out_area; ++p) acc += plane[p];
            bg[c] += acc;
          }
        }
      }
    }
  });

  // Reduction into the full-width (strided) gradient tensors, parallel
  // over destination rows. Each row still sums its shards in ascending s
  // — the serial order — so the result is bitwise identical at any
  // thread count.
  float* wgd = w_grad_.data();
  ops::ParallelForCompute(active_out_, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      float* dst = wgd + r * ld_w;
      for (int64_t s = 0; s < shards; ++s) {
        const float* src = wg_shards + s * wg_size + r * col_rows;
        for (int64_t c = 0; c < col_rows; ++c) dst[c] += src[c];
      }
    }
  });
  if (bg_shards) {
    for (int64_t s = 0; s < shards; ++s) {
      const float* bg = bg_shards + s * active_out_;
      for (int64_t c = 0; c < active_out_; ++c) b_grad_[c] += bg[c];
    }
  }
  return grad_in;
}

Tensor Conv2d::DepthwiseForward(const Tensor& x, ops::EpiAct act) {
  const int64_t batch = x.dim(0);
  const int64_t channels = active_in_;
  const int64_t h = cached_h_;
  const int64_t w = cached_w_;
  const int64_t k = opts_.kernel;
  const int64_t oh = last_oh_;
  const int64_t ow = last_ow_;
  const int64_t stride = opts_.stride;
  const int64_t pad = opts_.pad;
  Tensor y = Tensor::Uninit({batch, channels, oh, ow});
  const float* xd = x.data();
  float* yd = y.data();
  // Interior outputs — those whose k x k window lies fully inside the
  // input — take a bounds-check-free inner loop; only the border rows and
  // columns keep the checked loop. Both variants accumulate in the same
  // (ki, kj) ascending order, so the result is bitwise unchanged. `act` is
  // the direct-loop analogue of the GEMM epilogue, applied at each write.
  const int64_t oi_lo = (pad + stride - 1) / stride;
  const int64_t oi_hi = std::min<int64_t>(oh - 1, (h - k + pad) / stride);
  const int64_t oj_lo = oi_lo;  // same pad/stride in both dimensions
  const int64_t oj_hi = std::min<int64_t>(ow - 1, (w - k + pad) / stride);
  // Each (image, channel) plane is independent; parallelize over the
  // flattened plane index.
  ops::ParallelForCompute(batch * channels, [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      const float* xc = xd + p * h * w;
      const float* wc = w_.data() + (p % channels) * k * k;
      float* yc = yd + p * oh * ow;
      auto checked_pixel = [&](int64_t oi, int64_t oj) {
        float acc = 0.0f;
        for (int64_t ki = 0; ki < k; ++ki) {
          const int64_t ii = oi * stride - pad + ki;
          if (ii < 0 || ii >= h) continue;
          for (int64_t kj = 0; kj < k; ++kj) {
            const int64_t jj = oj * stride - pad + kj;
            if (jj < 0 || jj >= w) continue;
            acc += xc[ii * w + jj] * wc[ki * k + kj];
          }
        }
        yc[oi * ow + oj] = ops::detail::EpiActApply(act, acc);
      };
      for (int64_t oi = 0; oi < oh; ++oi) {
        const bool row_interior = oi >= oi_lo && oi <= oi_hi;
        if (!row_interior || oj_lo > oj_hi) {
          for (int64_t oj = 0; oj < ow; ++oj) checked_pixel(oi, oj);
          continue;
        }
        for (int64_t oj = 0; oj < oj_lo; ++oj) checked_pixel(oi, oj);
        const int64_t ii0 = oi * stride - pad;
        for (int64_t oj = oj_lo; oj <= oj_hi; ++oj) {
          const float* win = xc + ii0 * w + (oj * stride - pad);
          float acc = 0.0f;
          for (int64_t ki = 0; ki < k; ++ki) {
            const float* xrow = win + ki * w;
            const float* wrow = wc + ki * k;
            for (int64_t kj = 0; kj < k; ++kj) acc += xrow[kj] * wrow[kj];
          }
          yc[oi * ow + oj] = ops::detail::EpiActApply(act, acc);
        }
        for (int64_t oj = oj_hi + 1; oj < ow; ++oj) checked_pixel(oi, oj);
      }
    }
  });
  return y;
}

Tensor Conv2d::DepthwiseBackward(const Tensor& grad_out) {
  const int64_t batch = cached_x_.dim(0);
  const int64_t channels = active_in_;
  const int64_t h = cached_h_;
  const int64_t w = cached_w_;
  const int64_t k = opts_.kernel;
  const int64_t oh = last_oh_;
  const int64_t ow = last_ow_;
  Tensor grad_in({batch, channels, h, w});
  const float* xd = cached_x_.data();
  const float* gd = grad_out.data();
  float* gid = grad_in.data();
  // Parallel over channels: each channel's w_grad_ row is private to its
  // shard and images accumulate in index order, so results are bitwise
  // identical for any thread count. No zero-gradient skip: the scatter must
  // run even for g == 0 so NaN/Inf in x or w still propagate (g * NaN is
  // NaN, not 0).
  ops::ParallelForCompute(channels, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      const float* wc = w_.data() + c * k * k;
      float* wg = w_grad_.data() + c * k * k;
      for (int64_t img = 0; img < batch; ++img) {
        const float* xc = xd + (img * channels + c) * h * w;
        const float* gc = gd + (img * channels + c) * oh * ow;
        float* gi = gid + (img * channels + c) * h * w;
        for (int64_t oi = 0; oi < oh; ++oi) {
          for (int64_t oj = 0; oj < ow; ++oj) {
            const float g = gc[oi * ow + oj];
            for (int64_t ki = 0; ki < k; ++ki) {
              const int64_t ii = oi * opts_.stride - opts_.pad + ki;
              if (ii < 0 || ii >= h) continue;
              for (int64_t kj = 0; kj < k; ++kj) {
                const int64_t jj = oj * opts_.stride - opts_.pad + kj;
                if (jj < 0 || jj >= w) continue;
                wg[ki * k + kj] += g * xc[ii * w + jj];
                gi[ii * w + jj] += g * wc[ki * k + kj];
              }
            }
          }
        }
      }
    }
  });
  return grad_in;
}

void Conv2d::CollectParams(std::vector<ParamRef>* out) {
  out->push_back({name_ + ".w", &w_, &w_grad_, /*no_decay=*/false});
  if (opts_.bias) {
    out->push_back({name_ + ".b", &b_, &b_grad_, /*no_decay=*/true});
  }
}

int64_t Conv2d::FlopsPerSample() const {
  const int64_t out_area = (last_oh_ > 0) ? last_oh_ * last_ow_ : 1;
  return active_in_ / ActiveConvGroups() * active_out_ * opts_.kernel *
         opts_.kernel * out_area;
}

int64_t Conv2d::ActiveParams() const {
  return active_in_ / ActiveConvGroups() * active_out_ * opts_.kernel *
             opts_.kernel +
         (opts_.bias ? active_out_ : 0);
}

}  // namespace ms
