// LSTM layer with model slicing over inputs, hidden units and all four gates
// (paper Sec. 3.3): one slice rate regulates every input/output set.
#ifndef MODELSLICING_NN_LSTM_H_
#define MODELSLICING_NN_LSTM_H_

#include <string>
#include <vector>

#include "src/nn/module.h"
#include "src/nn/slice_spec.h"
#include "src/tensor/prepack.h"
#include "src/util/rng.h"

namespace ms {

struct LstmOptions {
  int64_t input_size = 0;
  int64_t hidden_size = 0;
  int64_t groups = 1;
  bool slice_in = true;
  bool slice_out = true;
  /// Rescale the input and recurrent contributions by full/active fan-in so
  /// gate pre-activations keep their scale across slice rates.
  bool rescale = true;
};

/// \brief Single-layer LSTM over a (T, B, input) sequence; returns the
/// (T, B, hidden) hidden-state sequence. All gate blocks [i, f, g, o] are
/// sliced to the same active prefix of hidden units.
class Lstm : public Module {
 public:
  Lstm(LstmOptions opts, Rng* rng, std::string name = "lstm");

  Tensor DoForward(const Tensor& x, bool training) override;
  Tensor DoBackward(const Tensor& grad_out) override;
  void CollectParams(std::vector<ParamRef>* out) override;
  void DoSetSliceRate(double r) override;
  int64_t FlopsPerSample() const override;
  int64_t ActiveParams() const override;
  std::string name() const override { return name_; }

  int64_t active_in() const { return active_in_; }
  int64_t active_hidden() const { return active_hidden_; }

 private:
  // Pre-activation z = rescale_x * Wx[gate] x + rescale_h * Wh[gate] h + b.
  // `int8` routes both GEMMs through the quantized packs (ensured by
  // DoForward before the timestep loop). With `fuse` set (inference +
  // epilogue fusion enabled) the second GEMM's epilogue adds the gate bias
  // and applies the gate nonlinearity (sigmoid for i/f/o, tanh for g), so z
  // holds *activated* gate values and the separate bias pass is skipped.
  void GateGemm(int gate, const float* x, int64_t m, const float* h,
                int64_t batch, bool int8, bool fuse, float* z) const;

  LstmOptions opts_;
  std::string name_;
  SliceSpec in_spec_;
  SliceSpec hidden_spec_;
  int64_t active_in_ = 0;
  int64_t active_hidden_ = 0;
  float rescale_x_ = 1.0f;
  float rescale_h_ = 1.0f;

  Tensor wx_;  ///< (4 * hidden, input): gate blocks stacked [i, f, g, o].
  Tensor wh_;  ///< (4 * hidden, hidden)
  Tensor b_;   ///< (4 * hidden)
  Tensor wx_grad_, wh_grad_, b_grad_;

  // Prepacked gate blocks, one per gate because the stacked [i,f,g,o]
  // rows are not a slice prefix of the full matrix. The recurrent
  // wh_pack_ is the biggest win: it is reused across all T timesteps.
  // _t = op(B) is W^T (forward); _nt = op(B) is W (backward dx/dh).
  ops::PackedMatrix wx_pack_t_[4], wh_pack_t_[4];
  ops::PackedMatrix wx_pack_nt_[4], wh_pack_nt_[4];

  // Int8 forward path: quantized gate blocks, K segments on the input /
  // hidden slice-group boundaries so any rate reads a pack prefix.
  ops::QuantizedPack qwx_t_[4], qwh_t_[4];
  std::vector<int64_t> in_seg_ends_, hidden_seg_ends_;

  // Per-timestep caches from the last Forward (compact widths).
  struct StepCache {
    Tensor i, f, g, o;     ///< gate activations, (B, n) each
    Tensor c, tanh_c, h;   ///< cell, tanh(cell), hidden
  };
  std::vector<StepCache> steps_;
  Tensor cached_x_;
  int64_t cached_t_ = 0;
  int64_t cached_b_ = 0;
};

}  // namespace ms

#endif  // MODELSLICING_NN_LSTM_H_
