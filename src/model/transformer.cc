#include "model/transformer.h"

#include <numeric>

#include "tensor/ops.h"
#include "util/logging.h"

namespace infuserki::model {

using tensor::Tensor;

TransformerLayer::TransformerLayer(const TransformerConfig& config,
                                   util::Rng* rng)
    : num_heads_(config.num_heads),
      norm1_weight_(Tensor::Full({config.dim}, 1.0f, /*requires_grad=*/true)),
      norm2_weight_(Tensor::Full({config.dim}, 1.0f, /*requires_grad=*/true)),
      wq_(config.dim, config.dim, rng, /*with_bias=*/false),
      wk_(config.dim, config.dim, rng, /*with_bias=*/false),
      wv_(config.dim, config.dim, rng, /*with_bias=*/false),
      wo_(config.dim, config.dim, rng, /*with_bias=*/false),
      ffn_gate_(config.dim, config.ffn_hidden, rng, /*with_bias=*/false),
      ffn_up_(config.dim, config.ffn_hidden, rng, /*with_bias=*/false),
      ffn_down_(config.ffn_hidden, config.dim, rng, /*with_bias=*/false) {
  RegisterParameter("norm1", norm1_weight_);
  RegisterParameter("norm2", norm2_weight_);
  RegisterModule("wq", &wq_);
  RegisterModule("wk", &wk_);
  RegisterModule("wv", &wv_);
  RegisterModule("wo", &wo_);
  RegisterModule("ffn_gate", &ffn_gate_);
  RegisterModule("ffn_up", &ffn_up_);
  RegisterModule("ffn_down", &ffn_down_);
}

Tensor TransformerLayer::Forward(const Tensor& x,
                                 const std::vector<size_t>& row_lens,
                                 const std::vector<LayerKv*>& row_kv,
                                 int layer_index,
                                 const ForwardOptions& options) const {
  CHECK_EQ(row_lens.size(), row_kv.size());
  // Attention sublayer. Attention is the only sublayer that mixes
  // positions, so it runs per row inside one ragged kernel call: each
  // row's K/V page is extended with its new rows, then every row attends
  // against its own page (earlier rows as an always-visible prefix).
  Tensor attn_in = tensor::RmsNorm(x, norm1_weight_);
  Tensor q = wq_.Forward(attn_in);
  Tensor k = wk_.Forward(attn_in);
  Tensor v = wv_.Forward(attn_in);
  std::vector<Tensor> keys(row_lens.size());
  std::vector<Tensor> values(row_lens.size());
  size_t offset = 0;
  for (size_t r = 0; r < row_lens.size(); ++r) {
    CHECK_GT(row_lens[r], size_t{0});
    // A one-row batch owns all of k/v: no slice copy.
    Tensor k_r =
        row_lens.size() == 1 ? k : tensor::SliceRows(k, offset, row_lens[r]);
    Tensor v_r =
        row_lens.size() == 1 ? v : tensor::SliceRows(v, offset, row_lens[r]);
    offset += row_lens[r];
    LayerKv* kv = row_kv[r];
    if (kv->k.defined()) {
      k_r = tensor::ConcatRows(kv->k, k_r);
      v_r = tensor::ConcatRows(kv->v, v_r);
    }
    kv->k = keys[r] = k_r;
    kv->v = values[r] = v_r;
  }
  CHECK_EQ(offset, q.dim(0));
  Tensor attn_out = wo_.Forward(tensor::CausalSelfAttentionRagged(
      q, keys, values, row_lens, num_heads_));
  if (options.hook != nullptr) {
    Tensor delta = options.hook->Delta(AdapterAttachment::kAttention,
                                       layer_index, attn_in);
    if (delta.defined()) attn_out = tensor::Add(attn_out, delta);
  }
  Tensor h = tensor::Add(x, attn_out);

  // FFN sublayer (SwiGLU). ffn_in is the paper's H_P^l.
  Tensor ffn_in = tensor::RmsNorm(h, norm2_weight_);
  if (options.trace != nullptr && options.trace->record_ffn_inputs) {
    options.trace->ffn_inputs.push_back(ffn_in.Detach());
  }
  Tensor gate = tensor::Silu(ffn_gate_.Forward(ffn_in));
  Tensor up = ffn_up_.Forward(ffn_in);
  Tensor ffn_out = ffn_down_.Forward(tensor::Mul(gate, up));
  if (options.hook != nullptr) {
    Tensor delta =
        options.hook->Delta(AdapterAttachment::kFfn, layer_index, ffn_in);
    if (delta.defined()) ffn_out = tensor::Add(ffn_out, delta);
  }
  return tensor::Add(h, ffn_out);
}

TransformerLM::TransformerLM(const TransformerConfig& config, util::Rng* rng)
    : config_(config),
      token_emb_(config.vocab_size, config.dim, rng),
      pos_emb_(config.max_seq_len, config.dim, rng),
      final_norm_weight_(
          Tensor::Full({config.dim}, 1.0f, /*requires_grad=*/true)) {
  CHECK_GT(config.vocab_size, size_t{0}) << "vocab_size must be set";
  CHECK_EQ(config.dim % config.num_heads, size_t{0});
  RegisterModule("token_emb", &token_emb_);
  RegisterModule("pos_emb", &pos_emb_);
  RegisterParameter("final_norm", final_norm_weight_);
  layers_.reserve(config.num_layers);
  for (size_t l = 0; l < config.num_layers; ++l) {
    layers_.push_back(std::make_unique<TransformerLayer>(config, rng));
    RegisterModule("layer" + std::to_string(l), layers_.back().get());
  }
}

Tensor TransformerLM::PackedHidden(
    const std::vector<int>& tokens, const std::vector<int>& positions,
    const std::vector<size_t>& row_lens,
    const std::vector<std::vector<LayerKv*>>& pages,
    const ForwardOptions& options) const {
  if (options.hook != nullptr) options.hook->BeginForward();
  if (options.trace != nullptr) {
    options.trace->ffn_inputs.clear();
    options.trace->layer_outputs.clear();
  }
  Tensor x = tensor::Add(token_emb_.Forward(tokens),
                         pos_emb_.Forward(positions));
  for (size_t l = 0; l < layers_.size(); ++l) {
    x = layers_[l]->Forward(x, row_lens, pages[l], static_cast<int>(l),
                            options);
    if (options.trace != nullptr && options.trace->record_layer_outputs) {
      options.trace->layer_outputs.push_back(x.Detach());
    }
  }
  return tensor::RmsNorm(x, final_norm_weight_);
}

Tensor TransformerLM::Hidden(const std::vector<int>& tokens,
                             const ForwardOptions& options) const {
  CHECK(!tokens.empty());
  CHECK_LE(tokens.size(), config_.max_seq_len)
      << "sequence exceeds max_seq_len";
  std::vector<LayerKv> local(layers_.size());
  const PrefixKv* prefix = options.prefix;
  if (prefix != nullptr && prefix->prefix_len > 0) {
    CHECK_EQ(prefix->keys.size(), layers_.size());
    CHECK_EQ(prefix->values.size(), layers_.size());
    for (size_t l = 0; l < layers_.size(); ++l) {
      CHECK_EQ(prefix->keys[l].dim(0), prefix->prefix_len);
      local[l] = {prefix->keys[l], prefix->values[l]};
    }
  }
  std::vector<std::vector<LayerKv*>> pages(layers_.size());
  for (size_t l = 0; l < layers_.size(); ++l) pages[l] = {&local[l]};
  std::vector<int> positions(tokens.size());
  std::iota(positions.begin(), positions.end(), 0);
  return PackedHidden(tokens, positions, {tokens.size()}, pages, options);
}

Tensor TransformerLM::Logits(const std::vector<int>& tokens,
                             const ForwardOptions& options) const {
  Tensor h = Hidden(tokens, options);
  // Tied output head.
  return tensor::MatmulNT(h, token_emb_.table());
}

Tensor TransformerLM::HiddenBatched(const std::vector<BatchRow>& rows,
                                    KvCache* cache,
                                    const ForwardOptions& options) const {
  CHECK(cache != nullptr);
  CHECK(!rows.empty());
  CHECK(!tensor::GradEnabled())
      << "the batched path is inference-only (run under NoGradGuard)";
  CHECK(options.trace == nullptr)
      << "trace recording is not supported on the cached path";
  CHECK(!HasSequenceStatefulHook(options))
      << "sequence-stateful hooks cannot take the cached path";
  CHECK_EQ(cache->num_layers(), layers_.size());
  size_t prefix_len = options.prefix != nullptr ? options.prefix->prefix_len
                                                : 0;
  std::vector<int> packed_tokens;
  std::vector<int> packed_positions;
  std::vector<size_t> row_lens;
  row_lens.reserve(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    const BatchRow& row = rows[r];
    CHECK(row.tokens != nullptr && !row.tokens->empty());
    CHECK_LT(row.slot, cache->num_slots());
    for (size_t other = 0; other < r; ++other) {
      CHECK(rows[other].slot != row.slot)
          << "batch rows must use distinct KV slots";
    }
    size_t start = cache->tokens(row.slot);
    CHECK_LE(start + row.tokens->size(), config_.max_seq_len)
        << "sequence exceeds max_seq_len";
    if (!cache->seeded(row.slot)) cache->SeedPrefix(options.prefix, row.slot);
    CHECK_EQ(cache->prefix_rows(row.slot), prefix_len)
        << "a slot must be forwarded with the prefix it was seeded with";
    for (size_t i = 0; i < row.tokens->size(); ++i) {
      packed_tokens.push_back((*row.tokens)[i]);
      packed_positions.push_back(static_cast<int>(start + i));
    }
    row_lens.push_back(row.tokens->size());
  }
  std::vector<std::vector<LayerKv*>> pages(layers_.size());
  for (size_t l = 0; l < layers_.size(); ++l) {
    for (const BatchRow& row : rows) {
      pages[l].push_back(cache->layer(l, row.slot));
    }
  }
  Tensor hidden =
      PackedHidden(packed_tokens, packed_positions, row_lens, pages, options);
  for (const BatchRow& row : rows) {
    cache->AdvanceTokens(row.tokens->size(), row.slot);
  }
  return hidden;
}

Tensor TransformerLM::LogitsBatched(const std::vector<BatchRow>& rows,
                                    KvCache* cache,
                                    const ForwardOptions& options) const {
  Tensor h = HiddenBatched(rows, cache, options);
  return tensor::MatmulNT(h, token_emb_.table());
}

Tensor TransformerLM::NextTokenLoss(const std::vector<int>& tokens,
                                    size_t loss_start,
                                    const ForwardOptions& options) const {
  CHECK_GE(tokens.size(), size_t{2}) << "need at least two tokens";
  std::vector<int> inputs(tokens.begin(), tokens.end() - 1);
  std::vector<int> targets(tokens.begin() + 1, tokens.end());
  for (size_t i = 0; i + 1 < loss_start && i < targets.size(); ++i) {
    targets[i] = -1;  // ignored by CrossEntropy
  }
  Tensor logits = Logits(inputs, options);
  return tensor::CrossEntropy(logits, targets, /*ignore_index=*/-1);
}

}  // namespace infuserki::model
