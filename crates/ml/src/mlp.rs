//! Multi-layer-perceptron regression.
//!
//! The MLP is the pool member that captures complex non-linear relationships
//! (e.g. memory that grows with the square of the input size, the
//! BaseRecalibrator example from the paper's introduction). The network is a
//! small fully connected net, one input wide, trained with mini-batch Adam
//! on standardised inputs and targets. `partial_fit` runs a few epochs over
//! the new data (warm start), which is what keeps the incremental Sizey
//! variant fast.
//!
//! Training is batch-major: each layer runs over the whole mini-batch at
//! once, with activations and deltas stored unit by unit so the inner loops
//! walk contiguous samples. Every float keeps the operation sequence of the
//! plain per-sample loop (a test-only `reference` copy of it pins every
//! weight bit for bit), so a fit is the same network either way.

use crate::dataset::Dataset;
use crate::model::{
    validate_query, validate_training_data, ModelClass, ModelError, PredictScratch, Regressor,
};
use crate::scaler::StandardScaler;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Adam learning rate.
const LEARNING_RATE: f64 = 0.01;
/// L2 weight decay.
const WEIGHT_DECAY: f64 = 1e-4;
/// Mini-batch size.
const BATCH_SIZE: usize = 16;
/// A fit stops early once the epoch loss has improved by no more than
/// `TOLERANCE` for `PATIENCE` consecutive epochs.
const TOLERANCE: f64 = 1e-6;
/// Early-stopping patience in epochs.
const PATIENCE: usize = 12;
/// Epochs of a warm start ([`Regressor::partial_fit`]). The warm start runs
/// on every completion (the network goes stale fast enough that thinning the
/// cadence measurably hurts sizing quality on small workloads), so it must be
/// shallow: a few Adam epochs over the recent tail keep the per-observe cost
/// bounded in the tens of microseconds.
const WARM_START_EPOCHS: usize = 5;

/// The hidden layers' ReLU.
#[inline]
fn relu(x: f64) -> f64 {
    x.max(0.0)
}

/// The ReLU's derivative at an already activated value.
#[inline]
fn relu_derivative(activated: f64) -> f64 {
    if activated > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Hyper-parameters for [`MlpRegression`]. The default is the network
/// Sizey's model pool trains.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Sizes of the hidden layers.
    pub hidden_layers: Vec<usize>,
    /// Maximum number of passes over the training data for a full fit.
    pub max_epochs: usize,
    /// RNG seed for weight initialisation and shuffling.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden_layers: vec![16],
            max_epochs: 120,
            seed: 42,
        }
    }
}

/// One fully connected layer with Adam optimiser state.
#[derive(Debug, Clone)]
struct Layer {
    /// Row-major weights: `outputs x inputs`.
    weights: Vec<f64>,
    biases: Vec<f64>,
    inputs: usize,
    outputs: usize,
    // Adam moments.
    m_w: Vec<f64>,
    v_w: Vec<f64>,
    m_b: Vec<f64>,
    v_b: Vec<f64>,
}

impl Layer {
    fn new(inputs: usize, outputs: usize, rng: &mut StdRng) -> Self {
        // He-style initialisation keeps ReLU nets trainable.
        let scale = (2.0 / inputs.max(1) as f64).sqrt();
        let weights: Vec<f64> = (0..inputs * outputs)
            .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        Layer {
            weights,
            biases: vec![0.0; outputs],
            inputs,
            outputs,
            m_w: vec![0.0; inputs * outputs],
            v_w: vec![0.0; inputs * outputs],
            m_b: vec![0.0; outputs],
            v_b: vec![0.0; outputs],
        }
    }

    fn forward(&self, input: &[f64], output: &mut Vec<f64>) {
        output.clear();
        output.reserve(self.outputs);
        for o in 0..self.outputs {
            let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
            let mut sum = self.biases[o];
            for (w, x) in row.iter().zip(input.iter()) {
                sum += w * x;
            }
            output.push(sum);
        }
    }
}

/// Flat buffers of the training loop, sized once per `train_epochs` call
/// for its largest mini-batch (`min(BATCH_SIZE, rows)` samples) and
/// threaded through every batch, so the batch loop allocates nothing.
/// The activations and deltas are unit-major: a layer's unit `u` holds its
/// value for sample `s` of the current batch at `u * batch + s`, so the
/// inner loops of the batch passes run over contiguous samples.
#[derive(Debug)]
struct TrainScratch {
    /// Every layer's activations for the batch back to back, the input
    /// first.
    acts: Vec<f64>,
    /// Two halves: the deltas of the layer being back-propagated, and of
    /// the one below it.
    deltas: Vec<f64>,
    /// Gradient accumulators back to back: per layer, its weights (row-major
    /// like [`Layer::weights`]) then its biases.
    grads: Vec<f64>,
}

impl TrainScratch {
    fn for_layers(layers: &[Layer], batch: usize) -> Self {
        let inputs = layers.first().map_or(0, |l| l.inputs);
        let outputs: usize = layers.iter().map(|l| l.outputs).sum();
        let widest = layers
            .iter()
            .map(|l| l.inputs.max(l.outputs))
            .max()
            .unwrap_or(0);
        let params = layers.iter().map(|l| l.weights.len() + l.biases.len());
        TrainScratch {
            acts: vec![0.0; (inputs + outputs) * batch],
            deltas: vec![0.0; 2 * widest * batch],
            grads: vec![0.0; params.sum()],
        }
    }
}

/// Adds `c_0 * r_0[s]`, then `c_1 * r_1[s]`, and so on to each `out[s]`,
/// where coefficient `c_j` is `coeffs[j * stride]` and the `terms` rows
/// `r_j` lie back to back in `rows`, `out.len()` values each. Four terms
/// share one pass over `out`; each sum still adds them one at a time, in
/// order.
fn add_terms(out: &mut [f64], coeffs: &[f64], stride: usize, rows: &[f64], terms: usize) {
    let width = out.len();
    let mut j = 0;
    while j + 4 <= terms {
        let block = &rows[j * width..(j + 4) * width];
        let (r0, rest) = block.split_at(width);
        let (r1, rest) = rest.split_at(width);
        let (r2, r3) = rest.split_at(width);
        let c = [
            coeffs[j * stride],
            coeffs[(j + 1) * stride],
            coeffs[(j + 2) * stride],
            coeffs[(j + 3) * stride],
        ];
        for ((((z, &a), &b), &d), &e) in out.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
            *z = *z + c[0] * a + c[1] * b + c[2] * d + c[3] * e;
        }
        j += 4;
    }
    while j < terms {
        let c = coeffs[j * stride];
        for (z, &x) in out.iter_mut().zip(&rows[j * width..(j + 1) * width]) {
            *z += c * x;
        }
        j += 1;
    }
}

/// Adds to each `out[k]` the products `d[s] * r_k[s]` over the samples `s`
/// in order, where the rows `r_k` lie back to back in `rows`, `d.len()`
/// values each. Four sums share one pass over the samples.
fn add_dots(out: &mut [f64], d: &[f64], rows: &[f64]) {
    let width = d.len();
    let mut k = 0;
    while k + 4 <= out.len() {
        let block = &rows[k * width..(k + 4) * width];
        let (r0, rest) = block.split_at(width);
        let (r1, rest) = rest.split_at(width);
        let (r2, r3) = rest.split_at(width);
        let g = &mut out[k..k + 4];
        let mut acc = [g[0], g[1], g[2], g[3]];
        for ((((&d, &a), &b), &c), &e) in d.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            acc[0] += d * a;
            acc[1] += d * b;
            acc[2] += d * c;
            acc[3] += d * e;
        }
        g.copy_from_slice(&acc);
        k += 4;
    }
    while k < out.len() {
        let g = &mut out[k];
        for (&d, &x) in d.iter().zip(&rows[k * width..(k + 1) * width]) {
            *g += d * x;
        }
        k += 1;
    }
}

/// MLP regressor with Adam optimisation.
#[derive(Debug, Clone)]
pub struct MlpRegression {
    config: MlpConfig,
    layers: Vec<Layer>,
    input_scaler: StandardScaler,
    target_scaler: StandardScaler,
    fitted: bool,
    adam_step: u64,
}

impl MlpRegression {
    /// Creates an unfitted MLP with the given configuration.
    pub fn new(config: MlpConfig) -> Self {
        MlpRegression {
            config,
            layers: Vec::new(),
            input_scaler: StandardScaler::default(),
            target_scaler: StandardScaler::default(),
            fitted: false,
            adam_step: 0,
        }
    }

    /// Creates an unfitted MLP with default configuration.
    pub fn with_defaults() -> Self {
        MlpRegression::new(MlpConfig::default())
    }

    /// The configuration used by this model.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    fn init_layers(&mut self) {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut sizes = Vec::with_capacity(self.config.hidden_layers.len() + 2);
        sizes.push(1);
        sizes.extend_from_slice(&self.config.hidden_layers);
        sizes.push(1);
        self.layers = sizes
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], &mut rng))
            .collect();
        self.adam_step = 0;
    }

    /// Forward pass returning only the output value, ping-ponging two
    /// caller-owned activation buffers (cleared and refilled layer by
    /// layer). The training pass keeps every layer's activations for a
    /// whole mini-batch ([`MlpRegression::forward_batch`]); the predict hot
    /// path does not. Arithmetic is identical, so the two agree bit for bit,
    /// and no allocations happen once the buffers have grown to the widest
    /// layer.
    fn forward_scalar_into(
        &self,
        input: &[f64],
        current: &mut Vec<f64>,
        next: &mut Vec<f64>,
    ) -> f64 {
        current.clear();
        current.extend_from_slice(input);
        for (li, layer) in self.layers.iter().enumerate() {
            layer.forward(current, next);
            if li != self.layers.len() - 1 {
                for z in next.iter_mut() {
                    *z = relu(*z);
                }
            }
            std::mem::swap(current, next);
        }
        current[0]
    }

    /// Forward pass over the `batch` samples whose inputs fill the start of
    /// `acts` unit-major: each layer's activations are written right behind
    /// its input. Returns where the output layer's activations start. Every
    /// output is its bias plus `w * x` added in input order, as in
    /// [`MlpRegression::forward_scalar_into`], so the two agree bit for bit.
    fn forward_batch(&self, acts: &mut [f64], batch: usize) -> usize {
        let last = self.layers.len() - 1;
        let mut start = 0;
        for (li, layer) in self.layers.iter().enumerate() {
            let (done, rest) = acts.split_at_mut(start + layer.inputs * batch);
            let input = &done[start..];
            for (o, &bias) in layer.biases.iter().enumerate() {
                let row = &layer.weights[o * layer.inputs..(o + 1) * layer.inputs];
                let out = &mut rest[o * batch..(o + 1) * batch];
                out.fill(bias);
                add_terms(out, row, 1, input, layer.inputs);
                if li != last {
                    for z in out.iter_mut() {
                        *z = relu(*z);
                    }
                }
            }
            start += layer.inputs * batch;
        }
        start
    }

    /// Back-propagates the output errors of the `batch` samples, which the
    /// caller left at the start of `scratch.deltas`, through the activations
    /// [`MlpRegression::forward_batch`] left in `scratch.acts`, adding the
    /// gradient into `scratch.grads`. Each gradient element sums its
    /// samples in sample order, and each back-propagated delta is `0.0`
    /// plus `w * d` over the output units in order, times the activation
    /// derivative: the per-sample loop's operations, float for float.
    fn backward_batch(&self, batch: usize, scratch: &mut TrainScratch) {
        let TrainScratch {
            acts,
            deltas,
            grads,
        } = scratch;
        let half = deltas.len() / 2;
        let (mut delta, mut next_delta) = deltas.split_at_mut(half);
        let units = self.layers.first().map_or(0, |l| l.inputs)
            + self.layers.iter().map(|l| l.outputs).sum::<usize>();
        // The output layer has one unit.
        let mut act_end = (units - 1) * batch;
        let mut grad_end = grads.len();
        for (li, layer) in self.layers.iter().enumerate().rev() {
            let input_act = &acts[act_end - layer.inputs * batch..act_end];
            let grad_start = grad_end - layer.weights.len() - layer.biases.len();
            let (d_w, d_b) = grads[grad_start..grad_end].split_at_mut(layer.weights.len());
            let delta_out = &delta[..layer.outputs * batch];
            for (o, g_b) in d_b.iter_mut().enumerate() {
                let d_o = &delta_out[o * batch..(o + 1) * batch];
                let row = &mut d_w[o * layer.inputs..(o + 1) * layer.inputs];
                for &d in d_o {
                    *g_b += d;
                }
                add_dots(row, d_o, input_act);
            }
            if li == 0 {
                break;
            }
            // Propagate delta to the previous layer.
            let below = &mut next_delta[..layer.inputs * batch];
            below.fill(0.0);
            for i in 0..layer.inputs {
                let nd = &mut below[i * batch..(i + 1) * batch];
                add_terms(
                    nd,
                    &layer.weights[i..],
                    layer.inputs,
                    delta_out,
                    layer.outputs,
                );
            }
            // Multiply by the activation derivative of the previous layer's
            // (activated) outputs, which are this layer's input.
            for (nd, a) in below.iter_mut().zip(input_act) {
                *nd *= relu_derivative(*a);
            }
            std::mem::swap(&mut delta, &mut next_delta);
            act_end -= layer.inputs * batch;
            grad_end = grad_start;
        }
    }

    /// Runs one Adam update over the mini-batch of sample positions `batch`
    /// into `samples`, the scaled `(input, target)` pairs. Returns the batch
    /// mean squared error (in scaled target space).
    fn train_batch(
        &mut self,
        batch: &[u32],
        samples: &[(f64, f64)],
        scratch: &mut TrainScratch,
    ) -> f64 {
        scratch.grads.fill(0.0);
        let b = batch.len();
        for (act, &p) in scratch.acts.iter_mut().zip(batch) {
            *act = samples[p as usize].0;
        }
        let output = self.forward_batch(&mut scratch.acts, b);
        // The output layer's delta is just the error (linear output +
        // squared loss).
        let mut loss = 0.0;
        let predictions = &scratch.acts[output..output + b];
        let errors = scratch.deltas.iter_mut().zip(predictions);
        for ((e, &prediction), &p) in errors.zip(batch) {
            let error = prediction - samples[p as usize].1;
            loss += error * error;
            *e = error;
        }
        self.backward_batch(b, scratch);

        // Adam update. The bias-correction denominators depend only on the
        // step, not the parameter index — hoisted out of the weight loops
        // (`powf` per weight dominated the warm-start update's cost).
        let n = batch.len() as f64;
        self.adam_step += 1;
        let t = self.adam_step as f64;
        let (beta1, beta2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let bias_correction1 = 1.0 - beta1.powf(t);
        let bias_correction2 = 1.0 - beta2.powf(t);
        let (lr, decay) = (LEARNING_RATE, WEIGHT_DECAY);
        let adam = |param: &mut f64, m: &mut f64, v: &mut f64, g: f64| {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let m_hat = *m / bias_correction1;
            let v_hat = *v / bias_correction2;
            *param -= lr * m_hat / (v_hat.sqrt() + eps);
        };
        let mut grads = scratch.grads.as_slice();
        for layer in &mut self.layers {
            let (d_w, rest) = grads.split_at(layer.weights.len());
            let (d_b, rest) = rest.split_at(layer.biases.len());
            grads = rest;
            let weights = layer.weights.iter_mut().zip(&mut layer.m_w);
            for ((w, m), (v, &d)) in weights.zip(layer.v_w.iter_mut().zip(d_w)) {
                adam(w, m, v, d / n + decay * *w);
            }
            let biases = layer.biases.iter_mut().zip(&mut layer.m_b);
            for ((b, m), (v, &d)) in biases.zip(layer.v_b.iter_mut().zip(d_b)) {
                adam(b, m, v, d / n);
            }
        }
        loss / n
    }

    /// Trains for up to `epochs` passes over `data` (already raw-space).
    ///
    /// The samples are scaled once into one buffer of `(input, target)`
    /// pairs, and each epoch shuffles a permutation of sample positions
    /// rather than the samples: the shuffle draws the same swaps for any
    /// slice of the same length, so batch `k` of an epoch holds the same
    /// samples, in the same order, as a shuffle of the rows themselves
    /// would. Each mini-batch then runs layer by layer over all
    /// of its samples at once ([`MlpRegression::forward_batch`],
    /// [`MlpRegression::backward_batch`]). A call allocates five buffers
    /// (samples, permutation and the three of [`TrainScratch`]), however
    /// many rows and epochs it runs; a warm start on 16 rows pays for them
    /// once per update.
    fn train_epochs(&mut self, data: &Dataset, epochs: usize) {
        let samples: Vec<(f64, f64)> = data
            .iter()
            .map(|(x, y)| {
                (
                    self.input_scaler.transform(x),
                    self.target_scaler.transform(y),
                )
            })
            .collect();
        let n = u32::try_from(data.len()).expect("an MLP trains on fewer than 2^32 rows");
        let mut perm: Vec<u32> = (0..n).collect();
        let mut scratch = TrainScratch::for_layers(&self.layers, BATCH_SIZE.min(data.len()));
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(self.adam_step));
        let mut best_loss = f64::INFINITY;
        let mut stall = 0usize;
        for _ in 0..epochs {
            perm.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for batch in perm.chunks(BATCH_SIZE) {
                epoch_loss += self.train_batch(batch, &samples, &mut scratch);
                batches += 1;
            }
            let epoch_loss = epoch_loss / batches.max(1) as f64;
            if best_loss - epoch_loss > TOLERANCE {
                best_loss = epoch_loss;
                stall = 0;
            } else {
                stall += 1;
                if stall >= PATIENCE {
                    break;
                }
            }
        }
    }
}

impl Regressor for MlpRegression {
    fn fit(&mut self, data: &Dataset) -> Result<(), ModelError> {
        validate_training_data(data)?;
        self.input_scaler.fit(data.inputs());
        self.target_scaler.fit(data.targets());
        self.init_layers();
        self.train_epochs(data, self.config.max_epochs);
        self.fitted = true;
        Ok(())
    }

    fn partial_fit(&mut self, data: &Dataset) -> Result<(), ModelError> {
        validate_training_data(data)?;
        if !self.fitted {
            return self.fit(data);
        }
        // Warm start: keep the existing weights and scalers, run a few epochs
        // on the new observations only.
        self.train_epochs(data, WARM_START_EPOCHS);
        Ok(())
    }

    fn predict(&self, features: &[f64]) -> Result<f64, ModelError> {
        let mut scratch = PredictScratch::default();
        self.predict_with(features, &mut scratch)
    }

    fn predict_with(
        &self,
        features: &[f64],
        scratch: &mut PredictScratch,
    ) -> Result<f64, ModelError> {
        if !self.fitted || self.layers.is_empty() {
            return Err(ModelError::NotFitted);
        }
        let x = validate_query(features)?;
        let PredictScratch { act_a, act_b, .. } = scratch;
        let out = self.forward_scalar_into(&[self.input_scaler.transform(x)], act_a, act_b);
        if !out.is_finite() {
            return Err(ModelError::Numerical(
                "MLP produced a non-finite prediction".to_string(),
            ));
        }
        Ok(self.target_scaler.inverse(out))
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }

    fn class(&self) -> ModelClass {
        ModelClass::Mlp
    }

    fn clone_box(&self) -> Box<dyn Regressor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod reference {
    //! The per-sample training loop, kept as plain code: the test oracle
    //! [`MlpRegression::train_epochs`] is held to bit for bit, both its
    //! batch-major loop ([`MlpRegression::forward_batch`],
    //! [`MlpRegression::backward_batch`]) and its one-sample-at-a-time loop
    //! for small mini-batches.
    //!
    //! Samples are `(Vec<f64>, f64)` pairs built per call and shuffled in
    //! place; each sample runs forward and backward on its own, through
    //! per-layer vectors. Nothing here is tuned for speed. The training
    //! loops must match it exactly, so its operation orders are the ones to
    //! keep: each output is `bias`, then `+= w * x` in input order; each
    //! gradient element sums its samples in sample order; the
    //! back-propagated delta is `0.0 + w * d` over the output units in
    //! order, then times the activation derivative; the loss sums the
    //! samples in order; the Adam update is unchanged.

    use super::*;

    /// Gradient accumulators for one layer.
    #[derive(Debug, Clone, Default)]
    struct LayerGrad {
        d_w: Vec<f64>,
        d_b: Vec<f64>,
    }

    /// Gradient accumulators, per-layer activations and deltas.
    #[derive(Debug, Default)]
    struct TrainScratch {
        grads: Vec<LayerGrad>,
        activations: Vec<Vec<f64>>,
        delta: Vec<f64>,
        next_delta: Vec<f64>,
    }

    /// Forward pass recording the activations of every layer, input first.
    fn forward_into(model: &MlpRegression, input: &[f64], activations: &mut Vec<Vec<f64>>) {
        activations.resize(model.layers.len() + 1, Vec::new());
        activations[0].clear();
        activations[0].extend_from_slice(input);
        for li in 0..model.layers.len() {
            let (prev, rest) = activations.split_at_mut(li + 1);
            let output = &mut rest[0];
            model.layers[li].forward(&prev[li], output);
            if li != model.layers.len() - 1 {
                for z in output.iter_mut() {
                    *z = relu(*z);
                }
            }
        }
    }

    /// One Adam update over a mini-batch; returns the batch mean squared
    /// error in scaled target space.
    fn train_batch(
        model: &mut MlpRegression,
        batch: &[(Vec<f64>, f64)],
        scratch: &mut TrainScratch,
    ) -> f64 {
        scratch
            .grads
            .resize_with(model.layers.len(), LayerGrad::default);
        for (layer, grad) in model.layers.iter().zip(scratch.grads.iter_mut()) {
            grad.d_w.clear();
            grad.d_w.resize(layer.weights.len(), 0.0);
            grad.d_b.clear();
            grad.d_b.resize(layer.biases.len(), 0.0);
        }
        let mut loss = 0.0;

        for (features, target) in batch {
            forward_into(model, features, &mut scratch.activations);
            let activations = &scratch.activations;
            let prediction = activations.last().expect("output")[0];
            let error = prediction - target;
            loss += error * error;

            scratch.delta.clear();
            scratch.delta.push(error);
            for li in (0..model.layers.len()).rev() {
                let layer = &model.layers[li];
                let input_act = &activations[li];
                let grad = &mut scratch.grads[li];
                for (o, &d) in scratch.delta.iter().enumerate().take(layer.outputs) {
                    grad.d_b[o] += d;
                    let row = &mut grad.d_w[o * layer.inputs..(o + 1) * layer.inputs];
                    for (g, x) in row.iter_mut().zip(input_act.iter()) {
                        *g += d * x;
                    }
                }
                if li == 0 {
                    break;
                }
                scratch.next_delta.clear();
                scratch.next_delta.resize(layer.inputs, 0.0);
                for (o, &d) in scratch.delta.iter().enumerate().take(layer.outputs) {
                    let row = &layer.weights[o * layer.inputs..(o + 1) * layer.inputs];
                    for (nd, w) in scratch.next_delta.iter_mut().zip(row.iter()) {
                        *nd += w * d;
                    }
                }
                let prev_act = &activations[li];
                for (nd, a) in scratch.next_delta.iter_mut().zip(prev_act.iter()) {
                    *nd *= relu_derivative(*a);
                }
                std::mem::swap(&mut scratch.delta, &mut scratch.next_delta);
            }
        }

        let n = batch.len() as f64;
        model.adam_step += 1;
        let t = model.adam_step as f64;
        let (beta1, beta2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let bias_correction1 = 1.0 - beta1.powf(t);
        let bias_correction2 = 1.0 - beta2.powf(t);
        let (lr, decay) = (LEARNING_RATE, WEIGHT_DECAY);
        for (layer, grad) in model.layers.iter_mut().zip(scratch.grads.iter()) {
            for i in 0..layer.weights.len() {
                let g = grad.d_w[i] / n + decay * layer.weights[i];
                layer.m_w[i] = beta1 * layer.m_w[i] + (1.0 - beta1) * g;
                layer.v_w[i] = beta2 * layer.v_w[i] + (1.0 - beta2) * g * g;
                let m_hat = layer.m_w[i] / bias_correction1;
                let v_hat = layer.v_w[i] / bias_correction2;
                layer.weights[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            for i in 0..layer.biases.len() {
                let g = grad.d_b[i] / n;
                layer.m_b[i] = beta1 * layer.m_b[i] + (1.0 - beta1) * g;
                layer.v_b[i] = beta2 * layer.v_b[i] + (1.0 - beta2) * g * g;
                let m_hat = layer.m_b[i] / bias_correction1;
                let v_hat = layer.v_b[i] / bias_correction2;
                layer.biases[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
        loss / n
    }

    /// Up to `epochs` shuffled passes over `data` (raw space).
    fn train_epochs(model: &mut MlpRegression, data: &Dataset, epochs: usize) {
        let mut samples: Vec<(Vec<f64>, f64)> = data
            .iter()
            .map(|(x, y)| {
                (
                    vec![model.input_scaler.transform(x)],
                    model.target_scaler.transform(y),
                )
            })
            .collect();
        let mut scratch = TrainScratch::default();
        let mut rng = StdRng::seed_from_u64(model.config.seed.wrapping_add(model.adam_step));
        let mut best_loss = f64::INFINITY;
        let mut stall = 0usize;
        for _ in 0..epochs {
            samples.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for batch in samples.chunks(BATCH_SIZE) {
                epoch_loss += train_batch(model, batch, &mut scratch);
                batches += 1;
            }
            let epoch_loss = epoch_loss / batches.max(1) as f64;
            if best_loss - epoch_loss > TOLERANCE {
                best_loss = epoch_loss;
                stall = 0;
            } else {
                stall += 1;
                if stall >= PATIENCE {
                    break;
                }
            }
        }
    }

    /// [`Regressor::fit`] on the reference loop.
    fn fit(model: &mut MlpRegression, data: &Dataset) {
        model.input_scaler.fit(data.inputs());
        model.target_scaler.fit(data.targets());
        model.init_layers();
        train_epochs(model, data, model.config.max_epochs);
        model.fitted = true;
    }

    /// [`Regressor::partial_fit`] on a fitted model, on the reference loop.
    fn partial_fit(model: &mut MlpRegression, data: &Dataset) {
        train_epochs(model, data, WARM_START_EPOCHS);
    }

    mod tests {
        use super::*;
        use proptest::prelude::*;

        fn dataset(rows: &[(f64, f64)]) -> Dataset {
            let mut data = Dataset::new();
            for &(x, y) in rows {
                data.push(x, y);
            }
            data
        }

        /// Every parameter, Adam moment and step of the two models, as bits.
        fn state_bits(model: &MlpRegression) -> (u64, Vec<u64>) {
            let mut bits = Vec::new();
            for layer in &model.layers {
                for buffer in [
                    &layer.weights,
                    &layer.biases,
                    &layer.m_w,
                    &layer.v_w,
                    &layer.m_b,
                    &layer.v_b,
                ] {
                    bits.extend(buffer.iter().map(|v| v.to_bits()));
                }
            }
            (model.adam_step, bits)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// A `fit` followed by several `partial_fit`s trains the same
            /// network, bit for bit, on the batch-major loop and on the reference
            /// loop: every weight, moment and Adam step, and every
            /// prediction on a probe grid. Covers one and two hidden
            /// layers and row counts that are not a multiple of the batch
            /// size.
            #[test]
            fn flat_training_matches_the_reference(
                depth in 0usize..2,
                epochs in (1usize..40, 0u64..1_000),
                rows in prop::collection::vec((0.0f64..1e10, 1e8f64..1e11), 1..48),
                updates in prop::collection::vec(1usize..20, 0..5),
                probes in prop::collection::vec(0.0f64..1e10, 1..12),
            ) {
                let (max_epochs, seed) = epochs;
                let config = MlpConfig {
                    hidden_layers: vec![16; depth + 1],
                    max_epochs,
                    seed,
                };
                let mut flat = MlpRegression::new(config.clone());
                let mut reference = MlpRegression::new(config);
                let initial = dataset(&rows);
                flat.fit(&initial).unwrap();
                fit(&mut reference, &initial);
                let mut steps = vec![initial];
                for &len in &updates {
                    // Warm starts on rows that cycle through the sample.
                    let chunk: Vec<_> = rows.iter().cycle().skip(steps.len()).take(len).copied().collect();
                    steps.push(dataset(&chunk));
                }
                for (step, data) in steps.iter().enumerate() {
                    if step > 0 {
                        flat.partial_fit(data).unwrap();
                        partial_fit(&mut reference, data);
                    }
                    prop_assert_eq!(state_bits(&flat), state_bits(&reference), "step {}", step);
                    for &probe in &probes {
                        let got = flat.predict(&[probe]).map(f64::to_bits).ok();
                        let want = reference.predict(&[probe]).map(f64::to_bits).ok();
                        prop_assert_eq!(got, want, "step {} probe {}", step, probe);
                    }
                }
            }
        }

        /// The shape Sizey's model pool trains, the default: one hidden
        /// layer of 16, up to 120 epochs, batches of 16 and five-epoch warm
        /// starts on 16 rows. The proptest above stays below 48 rows and 40
        /// epochs; this pins full fits at 16, 64, 268 and 801 rows, each
        /// followed by five 16-row warm starts.
        #[test]
        fn production_shape_matches_the_reference() {
            let config = MlpConfig::default();
            let mut rng = StdRng::seed_from_u64(7);
            let mut draw = |n: usize| {
                let rows: Vec<_> = (0..n)
                    .map(|_| {
                        let input = rng.gen_range(2e9..14e9);
                        let noise = 1.0 + rng.gen_range(-0.04..0.04);
                        (input, (2.4 * input + 6e9) * noise)
                    })
                    .collect();
                dataset(&rows)
            };
            let probes = [0.0, 2e9, 5.5e9, 9e9, 14e9, 3e10];
            for rows in [16, 64, 268, 801] {
                let mut flat = MlpRegression::new(config.clone());
                let mut reference = MlpRegression::new(config.clone());
                let initial = draw(rows);
                flat.fit(&initial).unwrap();
                fit(&mut reference, &initial);
                for step in 0..=5 {
                    if step > 0 {
                        let update = draw(16);
                        flat.partial_fit(&update).unwrap();
                        partial_fit(&mut reference, &update);
                    }
                    assert_eq!(
                        state_bits(&flat),
                        state_bits(&reference),
                        "{rows} rows, step {step}"
                    );
                    for probe in probes {
                        assert_eq!(
                            flat.predict(&[probe]).unwrap().to_bits(),
                            reference.predict(&[probe]).unwrap().to_bits(),
                            "{rows} rows, step {step}, probe {probe}"
                        );
                    }
                }
            }
        }

        /// Rows that all share one input and one target scale to zero, so
        /// the output is zero from the first epoch on: the loss stalls at
        /// exactly zero and the fit stops `PATIENCE` epochs after the first,
        /// one Adam step per epoch.
        #[test]
        fn a_stalled_loss_stops_after_patience_epochs() {
            let rows = vec![(3.0, 7.0); 10];
            let mut flat = MlpRegression::with_defaults();
            let mut reference = MlpRegression::with_defaults();
            flat.fit(&dataset(&rows)).unwrap();
            fit(&mut reference, &dataset(&rows));
            assert_eq!(flat.adam_step, 1 + PATIENCE as u64);
            assert_eq!(state_bits(&flat), state_bits(&reference));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mape;

    fn small_config() -> MlpConfig {
        MlpConfig {
            max_epochs: 400,
            ..MlpConfig::default()
        }
    }

    #[test]
    fn learns_linear_relationship() {
        let xs: Vec<f64> = (0..80).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 50.0).collect();
        let data = Dataset::from_univariate(&xs, &ys);
        let mut m = MlpRegression::new(small_config());
        m.fit(&data).unwrap();
        let preds: Vec<f64> = xs.iter().map(|&x| m.predict(&[x]).unwrap()).collect();
        assert!(mape(&ys, &preds) < 0.12, "mape = {}", mape(&ys, &preds));
    }

    #[test]
    fn learns_quadratic_relationship_better_than_linear_extreme() {
        // Quadratic growth, as in the BaseRecalibrator motivation.
        let xs: Vec<f64> = (1..=60).map(|i| i as f64 / 10.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 100.0 * x * x).collect();
        let data = Dataset::from_univariate(&xs, &ys);
        let mut m = MlpRegression::new(small_config());
        m.fit(&data).unwrap();
        // Interpolation inside the training range should be within ~30%.
        let p = m.predict(&[3.05]).unwrap();
        let truth = 100.0 * 3.05 * 3.05;
        assert!(
            (p - truth).abs() / truth < 0.3,
            "pred {p} too far from {truth}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let xs: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x * 2.0).collect();
        let data = Dataset::from_univariate(&xs, &ys);
        let mut a = MlpRegression::new(small_config());
        let mut b = MlpRegression::new(small_config());
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        assert_eq!(a.predict(&[17.0]).unwrap(), b.predict(&[17.0]).unwrap());
    }

    #[test]
    fn partial_fit_keeps_model_usable_and_shifts_towards_new_data() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x + 10.0).collect();
        let data = Dataset::from_univariate(&xs, &ys);
        let mut m = MlpRegression::new(small_config());
        m.fit(&data).unwrap();
        let before = m.predict(&[25.0]).unwrap();
        // New observations at x=25 are much larger.
        let new = Dataset::from_univariate(&[25.0; 8], &[200.0; 8]);
        m.partial_fit(&new).unwrap();
        let after = m.predict(&[25.0]).unwrap();
        assert!(
            after > before,
            "incremental update should move the estimate up"
        );
    }

    #[test]
    fn partial_fit_before_fit_acts_as_fit() {
        let mut m = MlpRegression::new(small_config());
        let data = Dataset::from_univariate(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]);
        m.partial_fit(&data).unwrap();
        assert!(m.is_fitted());
        assert!(m.predict(&[2.0]).unwrap().is_finite());
    }

    #[test]
    fn errors_before_fit_and_on_bad_query() {
        let m = MlpRegression::with_defaults();
        assert!(matches!(m.predict(&[1.0]), Err(ModelError::NotFitted)));
        let mut fitted = MlpRegression::new(small_config());
        fitted
            .fit(&Dataset::from_univariate(&[1.0, 2.0], &[1.0, 2.0]))
            .unwrap();
        assert!(matches!(
            fitted.predict(&[1.0, 2.0]),
            Err(ModelError::FeatureMismatch { .. })
        ));
    }

    #[test]
    fn relu_and_its_derivative() {
        assert_eq!(relu(-1.0), 0.0);
        assert_eq!(relu(2.0), 2.0);
        assert_eq!(relu_derivative(0.0), 0.0);
        assert_eq!(relu_derivative(3.0), 1.0);
    }
}
