//! Principal component analysis via power iteration with deflation.
//!
//! Figure 6 of the paper projects 4-dimensional I/O feature windows onto
//! two principal components for visualization. The feature dimensionality
//! is tiny, so power iteration on the covariance matrix is plenty.

use fleetio_des::rng::Rng;

/// A fitted PCA projection.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    components: Vec<Vec<f64>>,
}

impl Pca {
    /// Fits the top `n_components` principal components of `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, rows have inconsistent dimensions, or
    /// `n_components` exceeds the dimensionality or is zero.
    // Symmetric-matrix index math; iterators obscure the (i, j) symmetry.
    #[allow(clippy::needless_range_loop)]
    pub fn fit<R: Rng>(data: &[Vec<f64>], n_components: usize, rng: &mut R) -> Self {
        assert!(!data.is_empty(), "PCA needs data");
        let dim = data[0].len();
        assert!(
            data.iter().all(|p| p.len() == dim),
            "inconsistent dimensions"
        );
        assert!(
            n_components > 0 && n_components <= dim,
            "bad component count"
        );

        let n = data.len() as f64;
        let mean: Vec<f64> = (0..dim)
            .map(|j| data.iter().map(|p| p[j]).sum::<f64>() / n)
            .collect();
        // Covariance matrix (dim × dim).
        let mut cov = vec![vec![0.0f64; dim]; dim];
        for p in data {
            for i in 0..dim {
                let di = p[i] - mean[i];
                for j in i..dim {
                    cov[i][j] += di * (p[j] - mean[j]);
                }
            }
        }
        for i in 0..dim {
            for j in i..dim {
                cov[i][j] /= n.max(2.0) - 1.0;
                cov[j][i] = cov[i][j];
            }
        }

        let mut components = Vec::with_capacity(n_components);
        let mut work = cov;
        for _ in 0..n_components {
            let (vec_, val) = power_iteration(&work, rng);
            // Deflate: cov ← cov − λ v vᵀ.
            for i in 0..dim {
                for j in 0..dim {
                    work[i][j] -= val * vec_[i] * vec_[j];
                }
            }
            components.push(vec_);
        }
        Pca { mean, components }
    }

    /// The fitted component directions (unit vectors).
    pub fn components(&self) -> &[Vec<f64>] {
        &self.components
    }

    /// Projects `point` into component space.
    ///
    /// # Panics
    ///
    /// Panics if the dimension does not match.
    pub fn transform(&self, point: &[f64]) -> Vec<f64> {
        assert_eq!(point.len(), self.mean.len(), "dimension mismatch");
        self.components
            .iter()
            .map(|c| {
                c.iter()
                    .zip(point.iter().zip(&self.mean))
                    .map(|(cv, (x, m))| cv * (x - m))
                    .sum()
            })
            .collect()
    }
}

/// Returns the dominant (eigenvector, eigenvalue) of symmetric `m`.
fn power_iteration<R: Rng>(m: &[Vec<f64>], rng: &mut R) -> (Vec<f64>, f64) {
    let dim = m.len();
    let mut v: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
    normalize(&mut v);
    let mut val = 0.0;
    for _ in 0..200 {
        let mut next = vec![0.0f64; dim];
        for i in 0..dim {
            for j in 0..dim {
                next[i] += m[i][j] * v[j];
            }
        }
        let norm = next.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-12 {
            // Matrix is (numerically) zero in the remaining subspace.
            return (v, 0.0);
        }
        for x in &mut next {
            *x /= norm;
        }
        let delta: f64 = next.iter().zip(&v).map(|(a, b)| (a - b).abs()).sum();
        v = next;
        val = norm;
        if delta < 1e-12 {
            break;
        }
    }
    (v, val)
}

fn normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_des::rng::SmallRng;

    #[test]
    fn finds_dominant_direction() {
        let mut rng = SmallRng::seed_from_u64(5);
        // Points along y = 2x with small noise: first component ≈ (1, 2)/√5.
        let data: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let x = (i as f64 - 100.0) / 10.0;
                vec![
                    x + rng.gen_range(-0.01..0.01),
                    2.0 * x + rng.gen_range(-0.01..0.01),
                ]
            })
            .collect();
        let pca = Pca::fit(&data, 2, &mut rng);
        let c0 = &pca.components()[0];
        let slope = (c0[1] / c0[0]).abs();
        assert!((slope - 2.0).abs() < 0.05, "slope {slope}");
    }

    #[test]
    fn transform_centers_data() {
        let mut rng = SmallRng::seed_from_u64(6);
        let data = vec![vec![1.0, 1.0], vec![3.0, 3.0], vec![2.0, 2.0]];
        let pca = Pca::fit(&data, 1, &mut rng);
        let proj: Vec<f64> = data.iter().map(|p| pca.transform(p)[0]).collect();
        let mean: f64 = proj.iter().sum::<f64>() / proj.len() as f64;
        assert!(mean.abs() < 1e-9);
        // Endpoints map symmetrically.
        assert!((proj[0] + proj[1]).abs() < 1e-9);
    }

    #[test]
    fn components_are_orthonormal() {
        let mut rng = SmallRng::seed_from_u64(7);
        let data: Vec<Vec<f64>> = (0..100)
            .map(|_| (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let pca = Pca::fit(&data, 3, &mut rng);
        for (i, a) in pca.components().iter().enumerate() {
            let norm: f64 = a.iter().map(|x| x * x).sum();
            assert!((norm - 1.0).abs() < 1e-6, "component {i} norm {norm}");
            for b in pca.components().iter().skip(i + 1) {
                let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
                assert!(dot.abs() < 1e-3, "components not orthogonal: {dot}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bad component count")]
    fn too_many_components_panics() {
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = Pca::fit(&[vec![1.0, 2.0]], 3, &mut rng);
    }
}
