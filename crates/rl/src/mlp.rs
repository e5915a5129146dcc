//! A from-scratch multi-layer perceptron.
//!
//! One hidden layer with tanh activation and a linear output layer — the
//! architecture the paper settled on after its hyperparameter exploration
//! ("simple enough for interpretation but performs almost as well as
//! denser networks"). Trained with SGD plus momentum.

use std::io::{self, Read, Write};

use simrng::{Rng, SimRng};

use crate::wire;

const MAGIC: &[u8; 4] = b"MLP1";
const MAGIC_FULL: &[u8; 4] = b"MLPF";
/// Upper bound on the entries of either serialized weight matrix.
const MAX_MATRIX: u64 = 1 << 28;

/// A two-layer perceptron: `inputs → hidden (tanh) → outputs (linear)`.
///
/// Weight matrices are stored input-major (`w[i * fan_out + j]`: input `i`
/// → neuron `j`), so the forward pass and the momentum update walk
/// contiguous rows of independent neurons. The serialized formats and
/// [`Mlp::first_layer_weights`] keep the neuron-major order.
///
/// ```
/// use rl::Mlp;
///
/// let mut net = Mlp::new(4, 8, 2, 42);
/// let out = net.forward(&[0.1, -0.2, 0.3, 0.0]);
/// assert_eq!(out.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Mlp {
    inputs: usize,
    hidden: usize,
    outputs: usize,
    /// `w1[i * hidden + h]`: input `i` → hidden `h`.
    w1: Vec<f32>,
    b1: Vec<f32>,
    /// `w2[h * outputs + o]`: hidden `h` → output `o`.
    w2: Vec<f32>,
    b2: Vec<f32>,
    // Momentum buffers, laid out like the parameters they track.
    m_w1: Vec<f32>,
    m_b1: Vec<f32>,
    m_w2: Vec<f32>,
    m_b2: Vec<f32>,
    // Scratch from the last forward pass (for backprop).
    last_input: Vec<f32>,
    last_hidden: Vec<f32>,
}

impl Mlp {
    /// Creates a network with Xavier-style initialization from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(inputs: usize, hidden: usize, outputs: usize, seed: u64) -> Self {
        assert!(inputs > 0 && hidden > 0 && outputs > 0, "dimensions must be positive");
        let mut rng = SimRng::seed_from_u64(seed);
        let s1 = (6.0 / (inputs + hidden) as f32).sqrt();
        let s2 = (6.0 / (hidden + outputs) as f32).sqrt();
        // Drawn neuron-major, the order the seeded initialization has
        // always used, then stored input-major.
        let w1: Vec<f32> = (0..inputs * hidden).map(|_| rng.gen_range(-s1..s1)).collect();
        let w2: Vec<f32> = (0..hidden * outputs).map(|_| rng.gen_range(-s2..s2)).collect();
        Self::from_params(
            [inputs, hidden, outputs],
            [
                transpose(&w1, hidden, inputs),
                vec![0.0; hidden],
                transpose(&w2, outputs, hidden),
                vec![0.0; outputs],
            ],
            None,
        )
    }

    /// Assembles a network from input-major parameters `[w1, b1, w2, b2]`
    /// and optional momentum buffers in the same layout (zero if absent).
    fn from_params(
        [inputs, hidden, outputs]: [usize; 3],
        [w1, b1, w2, b2]: [Vec<f32>; 4],
        momentum: Option<[Vec<f32>; 4]>,
    ) -> Self {
        let [m_w1, m_b1, m_w2, m_b2] = momentum.unwrap_or_else(|| {
            let zeros = |n| vec![0.0; n];
            [zeros(inputs * hidden), zeros(hidden), zeros(hidden * outputs), zeros(outputs)]
        });
        Self {
            inputs,
            hidden,
            outputs,
            w1,
            b1,
            w2,
            b2,
            m_w1,
            m_b1,
            m_w2,
            m_b2,
            last_input: vec![0.0; inputs],
            last_hidden: vec![0.0; hidden],
        }
    }

    /// Input dimension.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Hidden-layer width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Output dimension.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// First-layer weights, laid out `[hidden][inputs]` row-major
    /// (`[h * inputs + i]`: input `i` → hidden `h`) — the matrix the
    /// Fig. 3 heat map aggregates.
    pub fn first_layer_weights(&self) -> Vec<f32> {
        transpose(&self.w1, self.inputs, self.hidden)
    }

    /// Runs a forward pass, caching activations for a subsequent
    /// [`Mlp::backward`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the input dimension.
    pub fn forward(&mut self, input: &[f32]) -> Vec<f32> {
        let mut hidden = std::mem::take(&mut self.last_hidden);
        let out = self.evaluate(input, &mut hidden);
        self.last_hidden = hidden;
        self.last_input.copy_from_slice(input);
        out
    }

    /// Inference without touching the backprop scratch state.
    pub fn predict(&self, input: &[f32]) -> Vec<f32> {
        self.evaluate(input, &mut vec![0.0; self.hidden])
    }

    /// The forward kernel shared by [`Mlp::forward`] and [`Mlp::predict`]:
    /// fills `hidden` with the tanh activations and returns the outputs.
    fn evaluate(&self, input: &[f32], hidden: &mut [f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.inputs, "input dimension mismatch");
        affine(&self.w1, &self.b1, input, hidden);
        for a in hidden.iter_mut() {
            *a = a.tanh();
        }
        let mut out = vec![0.0; self.outputs];
        affine(&self.w2, &self.b2, hidden, &mut out);
        out
    }

    /// Backpropagates `d_out` (∂loss/∂output) from the activations cached
    /// by the last [`Mlp::forward`], applying one SGD-with-momentum update.
    ///
    /// # Panics
    ///
    /// Panics if `d_out.len()` differs from the output dimension.
    pub fn backward(&mut self, d_out: &[f32], learning_rate: f32, momentum: f32) {
        assert_eq!(d_out.len(), self.outputs, "gradient dimension mismatch");
        // Hidden-layer error: δh = (Σo w2[h,o]·δo) · (1 − tanh²).
        let d_hidden: Vec<f32> = self
            .w2
            .chunks_exact(self.outputs)
            .zip(&self.last_hidden)
            .map(|(row, &a)| {
                let sum = row.iter().zip(d_out).fold(0.0f32, |acc, (w, d)| acc + w * d);
                sum * (1.0 - a * a)
            })
            .collect();

        // A bias is a weight on a constant 1.0 input.
        let step = |w: &mut [f32], m: &mut [f32], x: &[f32], delta: &[f32]| {
            momentum_step(w, m, x, delta, learning_rate, momentum);
        };
        step(&mut self.b2, &mut self.m_b2, &[1.0], d_out);
        step(&mut self.w2, &mut self.m_w2, &self.last_hidden, d_out);
        step(&mut self.b1, &mut self.m_b1, &[1.0], &d_hidden);
        step(&mut self.w1, &mut self.m_w1, &self.last_input, &d_hidden);
    }

    /// Serializes the network (dimensions and weights; optimizer state is
    /// not persisted).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn save<W: Write>(&self, mut w: W) -> io::Result<()> {
        self.write_header(&mut w, MAGIC)?;
        self.write_params(&mut w, [&self.w1, &self.b1, &self.w2, &self.b2])
    }

    /// Deserializes a network written by [`Mlp::save`].
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or malformed input.
    pub fn load<R: Read>(mut r: R) -> io::Result<Self> {
        let dims = read_header(&mut r, MAGIC)?;
        let params = read_params(&mut r, dims)?;
        Ok(Self::from_params(dims, params, None))
    }

    /// Serializes the network *including* the SGD momentum buffers, so a
    /// restored network continues training bit-for-bit where it stopped.
    /// The backprop scratch (`last_input`/`last_hidden`) is not persisted:
    /// every [`Mlp::backward`] is preceded by a [`Mlp::forward`] that
    /// rewrites it.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn save_full<W: Write>(&self, mut w: W) -> io::Result<()> {
        self.write_header(&mut w, MAGIC_FULL)?;
        self.write_params(&mut w, [&self.w1, &self.b1, &self.w2, &self.b2])?;
        self.write_params(&mut w, [&self.m_w1, &self.m_b1, &self.m_w2, &self.m_b2])
    }

    /// Deserializes a network written by [`Mlp::save_full`].
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or malformed input.
    pub fn load_full<R: Read>(mut r: R) -> io::Result<Self> {
        let dims = read_header(&mut r, MAGIC_FULL)?;
        let params = read_params(&mut r, dims)?;
        let momentum = read_params(&mut r, dims)?;
        Ok(Self::from_params(dims, params, Some(momentum)))
    }

    fn write_header<W: Write>(&self, w: &mut W, magic: &[u8; 4]) -> io::Result<()> {
        w.write_all(magic)?;
        for dim in [self.inputs, self.hidden, self.outputs] {
            wire::write_u64(w, dim as u64)?;
        }
        Ok(())
    }

    /// Writes `[w1, b1, w2, b2]` (or their momentum buffers) with the
    /// matrices neuron-major, the on-disk order.
    fn write_params<W: Write>(&self, w: &mut W, [w1, b1, w2, b2]: [&[f32]; 4]) -> io::Result<()> {
        let w1 = transpose(w1, self.inputs, self.hidden);
        let w2 = transpose(w2, self.hidden, self.outputs);
        for buf in [w1.as_slice(), b1, w2.as_slice(), b2] {
            for &v in buf {
                wire::write_f32(w, v)?;
            }
        }
        Ok(())
    }

    /// Mean-squared-error convenience: forward on `input`, backward against
    /// `target` on the selected `action` output only (other outputs receive
    /// zero gradient, as in DQN), returning the squared error.
    pub fn train_action(
        &mut self,
        input: &[f32],
        action: usize,
        target: f32,
        learning_rate: f32,
        momentum: f32,
    ) -> f32 {
        let out = self.forward(input);
        let mut d_out = vec![0.0f32; self.outputs];
        let err = out[action] - target;
        // Huber-style gradient clipping keeps large TD errors from blowing
        // up the weights (the standard DQN stabilization).
        d_out[action] = err.clamp(-1.0, 1.0);
        self.backward(&d_out, learning_rate, momentum);
        err * err
    }
}

/// `out = bias + xᵀ·w` for an input-major `w` (`w[i * out.len() + j]`).
///
/// Every output accumulates `w·x` terms in input order, exactly like a
/// per-neuron dot product, so results are bit-identical to one; the inner
/// loop runs across independent outputs, which the compiler vectorises
/// without reassociating any sum.
fn affine(w: &[f32], bias: &[f32], x: &[f32], out: &mut [f32]) {
    out.copy_from_slice(bias);
    for (row, &xi) in w.chunks_exact(out.len()).zip(x) {
        for (acc, &wij) in out.iter_mut().zip(row) {
            *acc += wij * xi;
        }
    }
}

/// One SGD-with-momentum step on an input-major matrix whose entry
/// `w[i * delta.len() + j]` has gradient `delta[j] · x[i]`.
fn momentum_step(
    w: &mut [f32],
    m: &mut [f32],
    x: &[f32],
    delta: &[f32],
    learning_rate: f32,
    momentum: f32,
) {
    let n = delta.len();
    for ((w_row, m_row), &xi) in w.chunks_exact_mut(n).zip(m.chunks_exact_mut(n)).zip(x) {
        for ((w, m), &d) in w_row.iter_mut().zip(m_row.iter_mut()).zip(delta) {
            *m = momentum * *m - learning_rate * (d * xi);
            *w += *m;
        }
    }
}

/// Transposes a row-major `rows × cols` matrix.
fn transpose(m: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    debug_assert_eq!(m.len(), rows * cols);
    (0..cols).flat_map(|c| (0..rows).map(move |r| m[r * cols + c])).collect()
}

/// Reads a serialized network's magic and `[inputs, hidden, outputs]`,
/// rejecting dimensions whose weight matrices would be implausibly large.
fn read_header<R: Read>(r: &mut R, magic: &[u8; 4]) -> io::Result<[usize; 3]> {
    let mut got = [0u8; 4];
    r.read_exact(&mut got)?;
    if &got != magic {
        return Err(wire::bad_data(&format!("bad {} magic", String::from_utf8_lossy(magic))));
    }
    let dims = [wire::read_u64(r)?, wire::read_u64(r)?, wire::read_u64(r)?];
    let plausible = |a: u64, b: u64| a.checked_mul(b).is_some_and(|n| n <= MAX_MATRIX);
    if dims.contains(&0) || !plausible(dims[0], dims[1]) || !plausible(dims[1], dims[2]) {
        return Err(wire::bad_data("implausible MLP dimensions"));
    }
    Ok(dims.map(|d| d as usize))
}

/// Reads `[w1, b1, w2, b2]` (or their momentum buffers) stored with the
/// matrices neuron-major and returns them input-major.
fn read_params<R: Read>(
    r: &mut R,
    [inputs, hidden, outputs]: [usize; 3],
) -> io::Result<[Vec<f32>; 4]> {
    let w1 = wire::read_f32s_exact(r, hidden * inputs)?;
    let b1 = wire::read_f32s_exact(r, hidden)?;
    let w2 = wire::read_f32s_exact(r, outputs * hidden)?;
    let b2 = wire::read_f32s_exact(r, outputs)?;
    Ok([transpose(&w1, hidden, inputs), b1, transpose(&w2, outputs, hidden), b2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_is_deterministic_per_seed() {
        let mut a = Mlp::new(6, 5, 3, 7);
        let mut b = Mlp::new(6, 5, 3, 7);
        let x = [0.5, -0.5, 0.25, 0.0, 1.0, -1.0];
        assert_eq!(a.forward(&x), b.forward(&x));
        let mut c = Mlp::new(6, 5, 3, 8);
        assert_ne!(a.forward(&x), c.forward(&x));
    }

    #[test]
    fn predict_matches_forward() {
        let mut net = Mlp::new(4, 6, 2, 1);
        let x = [0.1, 0.2, 0.3, 0.4];
        assert_eq!(net.forward(&x), net.predict(&x));
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let mut net = Mlp::new(3, 4, 2, 9);
        let x = [0.3, -0.7, 0.2];
        let action = 1;
        let target = 0.5f32;

        // Analytic gradient for one first-layer weight via a probe update.
        let eps = 1e-3f32;
        let loss = |n: &Mlp| {
            let y = n.predict(&x)[action];
            0.5 * (y - target) * (y - target)
        };
        for &idx in &[0usize, 5, 11] {
            let mut plus = net.clone();
            plus.w1[idx] += eps;
            let mut minus = net.clone();
            minus.w1[idx] -= eps;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);

            // Analytic: δ = (y−t); backprop by hand through the probe.
            let mut probe = net.clone();
            let y = probe.forward(&x)[action];
            let mut d_out = vec![0.0; 2];
            d_out[action] = y - target;
            // Use learning rate 1, momentum 0: weight delta = -gradient.
            let before = probe.w1[idx];
            probe.backward(&d_out, 1.0, 0.0);
            let analytic = before - probe.w1[idx];
            assert!(
                (numeric - analytic).abs() < 2e-3,
                "w1[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        let _ = net.forward(&x); // keep net "used"
    }

    #[test]
    fn training_reduces_error_on_a_fixed_target() {
        let mut net = Mlp::new(5, 12, 4, 3);
        let x = [0.2, -0.1, 0.7, -0.6, 0.05];
        let first = net.train_action(&x, 2, 1.0, 0.05, 0.9);
        for _ in 0..200 {
            net.train_action(&x, 2, 1.0, 0.05, 0.9);
        }
        let last = net.train_action(&x, 2, 1.0, 0.05, 0.9);
        assert!(last < first / 10.0, "error must shrink: {first} → {last}");
    }

    #[test]
    fn learns_a_simple_function() {
        use simrng::Rng;
        // Teach output 0 to be the sign-ish of x[0].
        let mut net = Mlp::new(2, 8, 1, 5);
        let mut rng = simrng::SimRng::seed_from_u64(17);
        for _ in 0..4000 {
            let x: f32 = rng.gen_range(-1.0..1.0);
            let target = if x > 0.0 { 1.0 } else { -1.0 };
            let _ = net.train_action(&[x, 1.0 - x.abs()], 0, target, 0.02, 0.8);
        }
        assert!(net.predict(&[0.8, 0.2])[0] > 0.4);
        assert!(net.predict(&[-0.8, 0.2])[0] < -0.4);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_input_size_panics() {
        let mut net = Mlp::new(3, 3, 3, 0);
        let _ = net.forward(&[1.0]);
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let mut net = Mlp::new(7, 5, 3, 21);
        for i in 0..50 {
            net.train_action(&[0.1; 7], i % 3, 0.5, 0.01, 0.9);
        }
        let mut buf = Vec::new();
        net.save(&mut buf).expect("in-memory save");
        let back = Mlp::load(buf.as_slice()).expect("load");
        let x = [0.3, -0.1, 0.2, 0.9, -0.9, 0.0, 0.4];
        assert_eq!(net.predict(&x), back.predict(&x));
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(Mlp::load(&b"NOT A NET"[..]).is_err());
        assert!(Mlp::load_full(&b"NOT A NET"[..]).is_err());
    }

    #[test]
    fn load_rejects_oversized_dimensions_without_allocating() {
        // A 92-byte file declaring a 2^36-entry second layer.
        let mut bytes = MAGIC.to_vec();
        for dim in [1u64, 1, 1 << 36] {
            bytes.extend_from_slice(&dim.to_le_bytes());
        }
        bytes.resize(92, 0);
        let err = Mlp::load(bytes.as_slice()).expect_err("implausible dimensions");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        bytes[..4].copy_from_slice(MAGIC_FULL);
        let err = Mlp::load_full(bytes.as_slice()).expect_err("implausible dimensions");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Dimensions whose product overflows u64 are refused too.
        let mut bytes = MAGIC.to_vec();
        for dim in [1u64 << 40, 1 << 40, 1] {
            bytes.extend_from_slice(&dim.to_le_bytes());
        }
        let err = Mlp::load(bytes.as_slice()).expect_err("overflowing dimensions");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Plausible dimensions on a truncated body fail on the missing
        // bytes, not on a dimension-sized allocation.
        let mut bytes = MAGIC.to_vec();
        for dim in [1u64 << 14, 1 << 14, 1] {
            bytes.extend_from_slice(&dim.to_le_bytes());
        }
        let err = Mlp::load(bytes.as_slice()).expect_err("truncated body");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn full_roundtrip_preserves_momentum() {
        let mut net = Mlp::new(4, 6, 3, 13);
        for i in 0..40 {
            net.train_action(&[0.2, -0.4, 0.6, 0.1], i % 3, 0.25, 0.02, 0.9);
        }
        let mut buf = Vec::new();
        net.save_full(&mut buf).expect("in-memory save");
        let mut back = Mlp::load_full(buf.as_slice()).expect("load");
        // Training both copies further must stay bit-identical — this only
        // holds if the momentum buffers survived the roundtrip.
        for i in 0..40 {
            let a = net.train_action(&[0.3, 0.1, -0.2, 0.0], i % 3, -0.5, 0.02, 0.9);
            let b = back.train_action(&[0.3, 0.1, -0.2, 0.0], i % 3, -0.5, 0.02, 0.9);
            assert_eq!(a, b);
        }
        assert_eq!(net.predict(&[0.1; 4]), back.predict(&[0.1; 4]));
    }
}
