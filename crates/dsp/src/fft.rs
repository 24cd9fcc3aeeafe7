//! Radix-2 fast Fourier transform.
//!
//! The transform sizes used throughout the workspace are powers of two
//! (analysis frames, fast convolution, analytic-signal computation), so a
//! classic iterative radix-2 Cooley–Tukey implementation is sufficient.
//! Helpers are provided for real-input transforms, inverse transforms, and
//! next-power-of-two zero-padding.

use crate::complex::Complex;
use crate::error::{DspError, Result};
use std::cell::RefCell;

/// Twiddle factors [`fft_in_place`] holds at once: stages with more are
/// processed in runs of this many, so the scratch stays small at any size.
const TWIDDLE_RUN: usize = 1024;

thread_local! {
    /// Per-thread twiddle scratch for [`fft_in_place`], reused across
    /// calls so the many small transforms of overlap-save convolution
    /// never allocate.
    static TWIDDLES: RefCell<Vec<Complex>> = const { RefCell::new(Vec::new()) };
}

/// Returns the smallest power of two that is `>= n` (and at least 1).
#[inline]
pub fn next_power_of_two(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Returns `true` if `n` is a non-zero power of two.
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

/// In-place iterative radix-2 FFT.
///
/// `buffer.len()` must be a power of two.  `inverse` selects the inverse
/// transform; the inverse is scaled by `1/N` so that
/// `ifft(fft(x)) == x`.
pub fn fft_in_place(buffer: &mut [Complex], inverse: bool) -> Result<()> {
    let n = buffer.len();
    if n == 0 {
        return Err(DspError::EmptyInput { operation: "fft" });
    }
    if !is_power_of_two(n) {
        return Err(DspError::invalid_parameter(
            "fft length",
            format!("{n} is not a power of two"),
        ));
    }
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            buffer.swap(i, j);
        }
    }
    // Butterflies.  Each stage's twiddles come from the same `w *= w_len`
    // recurrence every block used to run on its own, computed once per
    // stage instead of once per block, so the output is bit-identical.
    let sign = if inverse { 1.0 } else { -1.0 };
    TWIDDLES.with(|scratch| {
        let twiddles = &mut *scratch.borrow_mut();
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let angle = sign * 2.0 * std::f64::consts::PI / len as f64;
            let w_len = Complex::cis(angle);
            let mut w = Complex::ONE;
            let mut start = 0;
            while start < half {
                let end = (start + TWIDDLE_RUN).min(half);
                twiddles.clear();
                for _ in start..end {
                    twiddles.push(w);
                    w *= w_len;
                }
                for block in buffer.chunks_exact_mut(len) {
                    let (evens, odds) = block.split_at_mut(half);
                    for ((e, o), &w) in evens[start..end]
                        .iter_mut()
                        .zip(odds[start..end].iter_mut())
                        .zip(twiddles.iter())
                    {
                        let even = *e;
                        let odd = *o * w;
                        *e = even + odd;
                        *o = even - odd;
                    }
                }
                start = end;
            }
            len <<= 1;
        }
    });
    if inverse {
        let scale = 1.0 / n as f64;
        for value in buffer.iter_mut() {
            *value = value.scale(scale);
        }
    }
    Ok(())
}

/// Forward FFT of a complex buffer, returning a new vector.
pub fn fft(input: &[Complex]) -> Result<Vec<Complex>> {
    let mut buffer = input.to_vec();
    fft_in_place(&mut buffer, false)?;
    Ok(buffer)
}

/// Inverse FFT of a complex buffer, returning a new vector.
pub fn ifft(input: &[Complex]) -> Result<Vec<Complex>> {
    let mut buffer = input.to_vec();
    fft_in_place(&mut buffer, true)?;
    Ok(buffer)
}

/// Forward FFT of a real signal.
///
/// The input is zero-padded to the next power of two; the full complex
/// spectrum of that padded length is returned (not just the positive
/// frequencies), which keeps downstream code simple.
pub fn fft_real(input: &[f64]) -> Result<Vec<Complex>> {
    if input.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "fft_real",
        });
    }
    let n = next_power_of_two(input.len());
    let mut buffer = vec![Complex::ZERO; n];
    for (slot, &x) in buffer.iter_mut().zip(input.iter()) {
        *slot = Complex::from_real(x);
    }
    fft_in_place(&mut buffer, false)?;
    Ok(buffer)
}

/// Forward FFT of a real signal padded/truncated to exactly `n` points
/// (`n` must be a power of two).
pub fn fft_real_n(input: &[f64], n: usize) -> Result<Vec<Complex>> {
    if input.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "fft_real_n",
        });
    }
    if !is_power_of_two(n) {
        return Err(DspError::invalid_parameter(
            "n",
            format!("{n} is not a power of two"),
        ));
    }
    let mut buffer = vec![Complex::ZERO; n];
    for (slot, &x) in buffer.iter_mut().zip(input.iter()) {
        *slot = Complex::from_real(x);
    }
    fft_in_place(&mut buffer, false)?;
    Ok(buffer)
}

/// Inverse FFT returning only the real parts (the caller asserts the
/// spectrum is conjugate-symmetric, e.g. because it came from a real
/// signal).
pub fn ifft_real(spectrum: &[Complex]) -> Result<Vec<f64>> {
    let out = ifft(spectrum)?;
    Ok(out.into_iter().map(|c| c.re).collect())
}

/// Frequency in Hz corresponding to FFT bin `bin` for a transform of length
/// `n` at `sample_rate_hz`.  Bins above `n/2` map to negative frequencies.
#[inline]
pub fn bin_frequency(bin: usize, n: usize, sample_rate_hz: f64) -> f64 {
    let k = bin % n;
    if k <= n / 2 {
        k as f64 * sample_rate_hz / n as f64
    } else {
        (k as f64 - n as f64) * sample_rate_hz / n as f64
    }
}

/// FFT bin index closest to `frequency_hz` for a transform of length `n` at
/// `sample_rate_hz`.
#[inline]
pub fn frequency_bin(frequency_hz: f64, n: usize, sample_rate_hz: f64) -> usize {
    let bin = (frequency_hz / sample_rate_hz * n as f64).round() as isize;
    bin.rem_euclid(n as isize) as usize
}

/// Linear (fast, FFT-based) convolution of two real sequences.
///
/// The output length is `a.len() + b.len() - 1`, matching direct
/// convolution.
pub fn fft_convolve(a: &[f64], b: &[f64]) -> Result<Vec<f64>> {
    if a.is_empty() || b.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "fft_convolve",
        });
    }
    let out_len = a.len() + b.len() - 1;
    let n = next_power_of_two(out_len);
    let mut fa = vec![Complex::ZERO; n];
    let mut fb = vec![Complex::ZERO; n];
    for (slot, &x) in fa.iter_mut().zip(a.iter()) {
        *slot = Complex::from_real(x);
    }
    for (slot, &x) in fb.iter_mut().zip(b.iter()) {
        *slot = Complex::from_real(x);
    }
    fft_in_place(&mut fa, false)?;
    fft_in_place(&mut fb, false)?;
    for (x, y) in fa.iter_mut().zip(fb.iter()) {
        *x *= *y;
    }
    fft_in_place(&mut fa, true)?;
    Ok(fa.into_iter().take(out_len).map(|c| c.re).collect())
}

/// A precomputed kernel spectrum for overlap-save convolution.
///
/// Transforming the kernel is the fixed cost of FFT convolution; when the
/// same kernel is applied to many signals (anti-alias filters, band
/// shaping, room taps) it pays to do it once.  Overlap-save also keeps the
/// transform size proportional to the *kernel* rather than the signal, so
/// convolving a one-second 192 kHz capture with a 255-tap filter runs many
/// small FFTs instead of one 2^18-point pair.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpectrum {
    block: usize,
    kernel_len: usize,
    spectrum: Vec<Complex>,
}

impl KernelSpectrum {
    /// Transform `kernel` once, picking a block size a few times larger
    /// than the kernel so the overlap overhead stays small.
    pub fn new(kernel: &[f64]) -> Result<Self> {
        if kernel.is_empty() {
            return Err(DspError::EmptyInput {
                operation: "kernel spectrum",
            });
        }
        let block = (4 * next_power_of_two(kernel.len())).max(256);
        let mut spectrum = vec![Complex::ZERO; block];
        for (slot, &x) in spectrum.iter_mut().zip(kernel.iter()) {
            *slot = Complex::from_real(x);
        }
        fft_in_place(&mut spectrum, false)?;
        Ok(KernelSpectrum {
            block,
            kernel_len: kernel.len(),
            spectrum,
        })
    }

    /// Number of taps in the kernel this spectrum was built from.
    pub fn kernel_len(&self) -> usize {
        self.kernel_len
    }

    /// FFT block size used per overlap-save segment.
    pub fn block_len(&self) -> usize {
        self.block
    }

    /// Full linear convolution, output length `input.len() + kernel_len - 1`.
    pub fn convolve(&self, input: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.convolve_into(input, &mut out)?;
        Ok(out)
    }

    /// Full linear convolution written into `out` (cleared and resized),
    /// so callers in hot loops can reuse the output allocation.
    pub fn convolve_into(&self, input: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if input.is_empty() {
            return Err(DspError::EmptyInput {
                operation: "overlap-save convolve",
            });
        }
        let k = self.kernel_len;
        let b = self.block;
        // Each segment produces `l` valid output samples; the first `k - 1`
        // slots of every inverse transform are circular wrap and discarded.
        let l = b - k + 1;
        let out_len = input.len() + k - 1;
        out.clear();
        out.resize(out_len, 0.0);
        let mut segment = vec![Complex::ZERO; b];
        let mut start = 0usize;
        while start < out_len {
            // Output samples [start, start + l) depend on input samples
            // [start - k + 1, start + l); out-of-range taps are zero.
            for (j, slot) in segment.iter_mut().enumerate() {
                let idx = start as isize - (k as isize - 1) + j as isize;
                *slot = if idx >= 0 && (idx as usize) < input.len() {
                    Complex::from_real(input[idx as usize])
                } else {
                    Complex::ZERO
                };
            }
            fft_in_place(&mut segment, false)?;
            for (x, h) in segment.iter_mut().zip(self.spectrum.iter()) {
                *x *= *h;
            }
            fft_in_place(&mut segment, true)?;
            let valid = l.min(out_len - start);
            for (slot, value) in out[start..start + valid]
                .iter_mut()
                .zip(segment[k - 1..k - 1 + valid].iter())
            {
                *slot = value.re;
            }
            start += l;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    /// The butterfly loop as it was before the per-stage twiddle table:
    /// the bit-exactness reference for [`fft_in_place`].
    fn reference_fft_in_place(buffer: &mut [Complex], inverse: bool) {
        let n = buffer.len();
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                buffer.swap(i, j);
            }
        }
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2usize;
        while len <= n {
            let angle = sign * 2.0 * std::f64::consts::PI / len as f64;
            let w_len = Complex::cis(angle);
            let mut start = 0usize;
            while start < n {
                let mut w = Complex::ONE;
                for k in 0..len / 2 {
                    let even = buffer[start + k];
                    let odd = buffer[start + k + len / 2] * w;
                    buffer[start + k] = even + odd;
                    buffer[start + k + len / 2] = even - odd;
                    w *= w_len;
                }
                start += len;
            }
            len <<= 1;
        }
        if inverse {
            let scale = 1.0 / n as f64;
            for value in buffer.iter_mut() {
                *value = value.scale(scale);
            }
        }
    }

    #[test]
    fn butterflies_are_bit_identical_to_the_reference_loop() {
        let mut n = 1;
        while n <= 1 << 16 {
            let input: Vec<Complex> = (0..n)
                .map(|i| {
                    let x = i as f64;
                    Complex::new((x * 0.37).sin() + 1e-3 * x, (x * 0.11).cos() - 0.5)
                })
                .collect();
            for inverse in [false, true] {
                let mut fast = input.clone();
                let mut reference = input.clone();
                fft_in_place(&mut fast, inverse).unwrap();
                reference_fft_in_place(&mut reference, inverse);
                for (k, (a, b)) in fast.iter().zip(reference.iter()).enumerate() {
                    assert!(
                        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                        "n = {n}, inverse = {inverse}, bin {k}: {a:?} vs {b:?}"
                    );
                }
            }
            n <<= 1;
        }
    }

    #[test]
    fn rejects_empty_and_non_power_of_two() {
        assert!(fft(&[]).is_err());
        let mut buf = vec![Complex::ZERO; 3];
        assert!(fft_in_place(&mut buf, false).is_err());
        assert!(fft_real_n(&[1.0], 3).is_err());
    }

    #[test]
    fn transform_of_impulse_is_flat() {
        let mut input = vec![Complex::ZERO; 8];
        input[0] = Complex::ONE;
        let out = fft(&input).unwrap();
        for bin in out {
            assert!(approx(bin.re, 1.0, 1e-12));
            assert!(approx(bin.im, 0.0, 1e-12));
        }
    }

    #[test]
    fn transform_of_constant_concentrates_at_dc() {
        let input = vec![Complex::ONE; 16];
        let out = fft(&input).unwrap();
        assert!(approx(out[0].re, 16.0, 1e-9));
        for bin in &out[1..] {
            assert!(bin.abs() < 1e-9);
        }
    }

    #[test]
    fn sine_peaks_at_expected_bin() {
        let n = 256;
        let fs = 8_000.0;
        let f = 1_000.0; // exactly bin 32
        let samples: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / fs).sin())
            .collect();
        let spec = fft_real(&samples).unwrap();
        let k = frequency_bin(f, n, fs);
        assert_eq!(k, 32);
        let peak_mag = spec[k].abs();
        assert!(approx(peak_mag, n as f64 / 2.0, 1e-6));
        // All other positive-frequency bins are tiny.
        for (i, bin) in spec.iter().enumerate().take(n / 2) {
            if i != k {
                assert!(bin.abs() < 1e-6, "bin {i} leaked {}", bin.abs());
            }
        }
    }

    #[test]
    fn roundtrip_recovers_signal() {
        let n = 128;
        let samples: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.1).sin(), (i as f64 * 0.05).cos()))
            .collect();
        let back = ifft(&fft(&samples).unwrap()).unwrap();
        for (a, b) in samples.iter().zip(back.iter()) {
            assert!(approx(a.re, b.re, 1e-9));
            assert!(approx(a.im, b.im, 1e-9));
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 64;
        let samples: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64 - 3.0) / 3.0).collect();
        let spec = fft_real_n(&samples, n).unwrap();
        let time_energy: f64 = samples.iter().map(|x| x * x).sum();
        let freq_energy: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        assert!(approx(time_energy, freq_energy, 1e-9));
    }

    #[test]
    fn bin_frequency_maps_both_halves() {
        assert!(approx(bin_frequency(0, 8, 8000.0), 0.0, 1e-12));
        assert!(approx(bin_frequency(1, 8, 8000.0), 1000.0, 1e-12));
        assert!(approx(bin_frequency(4, 8, 8000.0), 4000.0, 1e-12));
        assert!(approx(bin_frequency(7, 8, 8000.0), -1000.0, 1e-12));
    }

    #[test]
    fn fft_convolution_matches_direct() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [0.5, -1.0, 0.25];
        let fast = fft_convolve(&a, &b).unwrap();
        let mut direct = vec![0.0; a.len() + b.len() - 1];
        for (i, &x) in a.iter().enumerate() {
            for (j, &y) in b.iter().enumerate() {
                direct[i + j] += x * y;
            }
        }
        assert_eq!(fast.len(), direct.len());
        for (f, d) in fast.iter().zip(direct.iter()) {
            assert!(approx(*f, *d, 1e-9));
        }
    }

    fn direct_convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut direct = vec![0.0; a.len() + b.len() - 1];
        for (i, &x) in a.iter().enumerate() {
            for (j, &y) in b.iter().enumerate() {
                direct[i + j] += x * y;
            }
        }
        direct
    }

    #[test]
    fn overlap_save_matches_direct_across_odd_lengths() {
        for (signal_len, kernel_len) in [(1, 1), (37, 5), (255, 17), (1023, 63), (500, 101)] {
            let signal: Vec<f64> = (0..signal_len)
                .map(|i| ((i * 31 % 13) as f64 - 6.0) / 6.0)
                .collect();
            let kernel: Vec<f64> = (0..kernel_len)
                .map(|i| ((i * 7 % 5) as f64 - 2.0) / 4.0)
                .collect();
            let spec = KernelSpectrum::new(&kernel).unwrap();
            let fast = spec.convolve(&signal).unwrap();
            let direct = direct_convolve(&signal, &kernel);
            assert_eq!(fast.len(), direct.len());
            for (f, d) in fast.iter().zip(direct.iter()) {
                assert!(
                    approx(*f, *d, 1e-9),
                    "mismatch at ({signal_len}, {kernel_len}): {f} vs {d}"
                );
            }
        }
    }

    #[test]
    fn overlap_save_on_silence_is_silent() {
        let kernel = [0.25, 0.5, 0.25];
        let spec = KernelSpectrum::new(&kernel).unwrap();
        let out = spec.convolve(&vec![0.0; 777]).unwrap();
        assert_eq!(out.len(), 779);
        assert!(out.iter().all(|&x| x.abs() < 1e-12));
    }

    #[test]
    fn overlap_save_kernel_longer_than_signal() {
        let signal = [1.0, -2.0, 0.5];
        let kernel: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin() / 8.0).collect();
        let spec = KernelSpectrum::new(&kernel).unwrap();
        let fast = spec.convolve(&signal).unwrap();
        let direct = direct_convolve(&signal, &kernel);
        assert_eq!(fast.len(), direct.len());
        for (f, d) in fast.iter().zip(direct.iter()) {
            assert!(approx(*f, *d, 1e-9));
        }
    }

    #[test]
    fn overlap_save_matches_full_size_fft_convolve() {
        let signal: Vec<f64> = (0..4096)
            .map(|i| ((i * 131 % 97) as f64 - 48.0) / 48.0)
            .collect();
        let kernel: Vec<f64> = (0..255)
            .map(|i| ((i * 11 % 23) as f64 - 11.0) / 64.0)
            .collect();
        let spec = KernelSpectrum::new(&kernel).unwrap();
        let blocked = spec.convolve(&signal).unwrap();
        let full = fft_convolve(&signal, &kernel).unwrap();
        assert_eq!(blocked.len(), full.len());
        for (b, f) in blocked.iter().zip(full.iter()) {
            assert!(approx(*b, *f, 1e-9));
        }
    }

    #[test]
    fn convolve_into_reuses_the_output_allocation() {
        let kernel = [1.0, 1.0];
        let spec = KernelSpectrum::new(&kernel).unwrap();
        let mut out = vec![9.0; 4];
        spec.convolve_into(&[1.0, 2.0, 3.0], &mut out).unwrap();
        assert_eq!(out.len(), 4);
        for (got, want) in out.iter().zip([1.0, 3.0, 5.0, 3.0].iter()) {
            assert!(approx(*got, *want, 1e-9));
        }
        assert!(spec.convolve(&[]).is_err());
        assert!(KernelSpectrum::new(&[]).is_err());
    }

    #[test]
    fn next_power_of_two_helper() {
        assert_eq!(next_power_of_two(0), 1);
        assert_eq!(next_power_of_two(1), 1);
        assert_eq!(next_power_of_two(5), 8);
        assert_eq!(next_power_of_two(1024), 1024);
        assert!(is_power_of_two(64));
        assert!(!is_power_of_two(65));
        assert!(!is_power_of_two(0));
    }
}
