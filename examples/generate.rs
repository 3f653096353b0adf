//! Autoregressive generation over the paged KV cache: encode a
//! variable-length source batch, then greedily decode every sequence
//! together, token by token, through a toy vocabulary head — one paged
//! session per sequence and one decoder forward per step.
//!
//! ```text
//! cargo run --release --example generate
//! ```

use bytetransformer::core::paged::PagedDecoder;
use bytetransformer::prelude::*;
use bytetransformer::tensor::rng::Xoshiro256StarStar;
use bytetransformer::varlen::paged::{PagedLayout, SessionId};

fn main() {
    let config = BertConfig {
        heads: 4,
        head_size: 16,
        ffn_scale: 4,
        layers: 2,
        eps: 1e-6,
    };
    let model = Seq2SeqTransformer::new_random(config, 2, 2, 42);
    let hidden = config.hidden();
    let vocab = 64usize;
    // Toy vocabulary: an embedding table shared for input and output.
    let embed = Tensor::randn([vocab, hidden], 9);

    // Encode a batch of three variable-length "sentences".
    let src_mask = BatchMask::from_lens(vec![12, 5, 9], 12).expect("lengths bounded");
    let mut src = Tensor::zeros([3, 12, hidden]);
    let mut rng = Xoshiro256StarStar::seed_from_u64(3);
    for (b, &len) in src_mask.seq_lens().iter().enumerate() {
        for s in 0..len {
            let tok = rng.below(vocab as u64) as usize;
            for h in 0..hidden {
                src.set(&[b, s, h], embed.at(&[tok, h]).unwrap()).unwrap();
            }
        }
    }
    let device = Device::new();
    let memory = model
        .encoder
        .forward(&device, &src, &src_mask, OptLevel::FusedMha)
        .expect("validated shapes");
    println!(
        "encoded {} source tokens in {:.3} ms modeled\n",
        src_mask.valid_words(),
        device.modeled_total() * 1e3
    );

    // One session per sequence over its memory rows (cross-attention K/V
    // projected once, here), then one forward per greedy step holding every
    // session's newest token.
    let dev = Device::new();
    let mut paged = PagedDecoder::new(&model.decoder, PagedLayout::default());
    let max_seq = src_mask.max_seq_len();
    let sessions: Vec<SessionId> = src_mask
        .seq_lens()
        .iter()
        .enumerate()
        .map(|(b, &mem_len)| {
            let rows = memory.as_slice()[b * max_seq * hidden..][..mem_len * hidden].to_vec();
            let mem = Tensor::from_vec(rows, [mem_len, hidden]).expect("shape consistent");
            paged.open_session(&dev, &mem)
        })
        .collect();
    let max_new = 10;
    let mut tokens = vec![0usize; sessions.len()]; // BOS
    let mut generated = vec![Vec::new(); sessions.len()];
    for _ in 0..max_new {
        let rows: Vec<(SessionId, &[f32])> = sessions.iter().zip(&tokens).map(|(&s, &t)| (s, embed.row(t))).collect();
        for (b, out) in paged.forward(&dev, &rows).into_iter().enumerate() {
            let h_out = out.expect("the default pool holds every session");
            // Toy output head: nearest embedding by dot product.
            tokens[b] = (0..vocab)
                .max_by(|&a, &b| {
                    let da: f32 = embed.row(a).iter().zip(&h_out).map(|(x, y)| x * y).sum();
                    let db: f32 = embed.row(b).iter().zip(&h_out).map(|(x, y)| x * y).sum();
                    da.partial_cmp(&db).expect("finite logits")
                })
                .expect("non-empty vocab");
            generated[b].push(tokens[b]);
        }
    }
    for (b, &mem_len) in src_mask.seq_lens().iter().enumerate() {
        println!("seq {b} (memory {mem_len:>2} tokens): generated {:?}", generated[b]);
    }
    println!(
        "\n{} sessions, {max_new} steps: {} kernel launches, {:.3} ms modeled",
        sessions.len(),
        dev.launches(),
        dev.modeled_total() * 1e3
    );
    println!("each step is one forward over every session's token, attending over its paged KV cache;");
    println!("cross-attention K/V were projected once per session");
}
