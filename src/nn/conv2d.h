// 2-D convolution with model slicing over channels (paper Sec. 3.2, Eq. 4).
// One layer covers dense, grouped (ResNeXt-style branches [51]) and
// depthwise convolution through `conv_groups`; the paper (Sec. 3.5) singles
// out the multi-branch kinds as ideally suited to group residual learning.
#ifndef MODELSLICING_NN_CONV2D_H_
#define MODELSLICING_NN_CONV2D_H_

#include <string>
#include <vector>

#include "src/nn/module.h"
#include "src/nn/slice_spec.h"
#include "src/tensor/prepack.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/rng.h"

namespace ms {

struct Conv2dOptions {
  int64_t in_channels = 0;
  int64_t out_channels = 0;
  int64_t kernel = 3;
  int64_t stride = 1;
  int64_t pad = 1;
  int64_t groups = 1;     ///< G slicing groups (not conv groups).
  /// Convolution groups: 1 = dense, G = ResNeXt branches, in_channels ==
  /// out_channels == conv_groups = depthwise. Both channel counts must
  /// divide by it.
  int64_t conv_groups = 1;
  bool slice_in = true;
  bool slice_out = true;
  bool bias = false;      ///< Usually false: a norm layer follows.
};

/// \brief Channel-sliced (optionally grouped) convolution.
///
/// Conv group g maps input channels [g*Mg, (g+1)*Mg) to output channels
/// [g*Ng, (g+1)*Ng). The weight is (N, Mg, k, k) flattened row-major, so
/// the first m*k*k entries of each filter row correspond exactly to the
/// first m input channels of its group.
///
/// Slicing rule: the active channels are a prefix of whole conv groups.
/// With conv_groups == 1 the one group is itself sliced, which reduces to
/// prefix GEMMs over the im2col matrix (cost ~ r^2); the forward's GEMM
/// reads that matrix in place from a zero-padded copy of the input
/// (GemmPrepackedAConv), and only backward materializes it (Im2Col). With
/// conv_groups > 1 every slicing-group boundary must fall on a conv-group
/// boundary and slice_in == slice_out, so a slice keeps a prefix of whole
/// branches and cost scales linearly in the active branches. A layer with
/// one input and one output channel per group (depthwise) runs a
/// direct-loop kernel and takes no bias.
///
/// The forward is fp32 at every precision: an int8 conv has to quantize
/// every output pixel's im2col column, which made it slower than the fp32
/// implicit GEMM end to end (vgg13 and resnet56-2, every slice rate), so
/// SetPrecision(kInt8) only changes the Dense/Lstm/Gru layers of a model.
class Conv2d : public Module {
 public:
  Conv2d(Conv2dOptions opts, Rng* rng, std::string name = "conv");

  Tensor DoForward(const Tensor& x, bool training) override;
  Tensor DoBackward(const Tensor& grad_out) override;
  void CollectParams(std::vector<ParamRef>* out) override;
  void DoSetSliceRate(double r) override;
  int64_t FlopsPerSample() const override;
  int64_t ActiveParams() const override;
  std::string name() const override { return name_; }

  int64_t active_in() const { return active_in_; }
  int64_t active_out() const { return active_out_; }
  const Conv2dOptions& options() const { return opts_; }
  /// True for the depthwise shape (one channel in and out per conv group).
  bool depthwise() const { return depthwise_; }

  /// Fusion-pass hook: apply `act` in the forward GEMM's epilogue (or at
  /// each depthwise output write) at inference; the following activation
  /// module is then bypassed.
  void SetFusedActivation(ops::EpiAct act) { fused_act_ = act; }
  ops::EpiAct fused_activation() const { return fused_act_; }

  /// Weight matrix (out_channels, in_channels / conv_groups * k * k);
  /// exposed for the channel-pruning baseline which rebuilds compact
  /// networks.
  const Tensor& weight() const { return w_; }
  /// Write-intent accessor: bumps the weight generation so prepacked
  /// panels (see prepack.h) can never serve the old values.
  Tensor* mutable_weight() {
    ops::BumpWeightGeneration();
    return &w_;
  }
  const Tensor& bias() const { return b_; }
  Tensor* mutable_bias() { return &b_; }

 private:
  /// Conv groups the active channel prefix spans (1 when conv_groups == 1).
  int64_t ActiveConvGroups() const;
  Tensor DepthwiseForward(const Tensor& x, ops::EpiAct act);
  Tensor DepthwiseBackward(const Tensor& grad_out);

  Conv2dOptions opts_;
  std::string name_;
  SliceSpec in_spec_;
  SliceSpec out_spec_;
  int64_t active_in_ = 0;
  int64_t active_out_ = 0;
  bool depthwise_ = false;

  Tensor w_;       ///< (out_channels, in_channels / conv_groups * k * k)
  Tensor b_;
  Tensor w_grad_;
  Tensor b_grad_;

  // One prepacked W_g panel set per conv group in the GEMM's A role (W_g
  // is the left operand of the im2col product, explicit or implicit); a
  // sliced dense conv reads a prefix of its single pack. Ensured BEFORE the
  // batch-parallel regions so workers share them read-only. _t = W_g^T for
  // the backward dcols path. Empty for the depthwise kernel.
  std::vector<ops::PackedMatrix> wpacks_;
  std::vector<ops::PackedMatrix> wpacks_t_;

  Tensor cached_x_;       ///< compact input (B, m, H, W)
  ops::EpiAct fused_act_ = ops::EpiAct::kNone;
  int64_t cached_h_ = 0;
  int64_t cached_w_ = 0;
  int64_t last_oh_ = 0;   ///< spatial dims of last output, for FLOPs.
  int64_t last_ow_ = 0;
};

}  // namespace ms

#endif  // MODELSLICING_NN_CONV2D_H_
