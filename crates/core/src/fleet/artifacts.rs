//! Content-addressed deployment artifact cache.
//!
//! A fleet typically runs many instances of few binaries. Analysing and
//! training a [`Deployment`] per instance wastes both time and memory, so
//! the cache keys finished deployments on a content hash of the protected
//! image and hands every instance of the same binary one shared
//! `Arc<Deployment>` (the O-CFG is already `Arc`-shared inside it, and the
//! ITC-CFG/bitset clones are per-engine copies of shared read-only data).
//!
//! The cache is verify-gated: a deployment enters it only after the
//! `fg-verify` rule catalogue passes. Rejections are cached too — a binary
//! whose artifact fails verification is refused instantly on every
//! subsequent spawn attempt instead of being re-analysed and re-rejected.

use crate::deploy::Deployment;
use fg_isa::image::Image;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Content hash of an image: 64-bit FNV-1a over its canonical JSON
/// serialisation. Collision-resistant enough for a cache key over a
/// fleet's handful of distinct binaries (this is a dedup key, not a
/// security boundary — admission is gated by the verifier, not the hash).
pub fn image_hash(image: &Image) -> u64 {
    let json = serde_json::to_string(image).expect("images serialise");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The cached admission verdict for one image hash.
#[derive(Debug, Clone)]
enum Verdict {
    /// Verified clean; all instances share this deployment.
    Admitted(Arc<Deployment>),
    /// Failed verification; the report is served to every retry.
    Rejected(Arc<fg_verify::Report>),
}

/// Cumulative cache statistics (serialisable for fleet snapshots).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ArtifactCacheStats {
    /// Lookups served from the cache (admitted or rejected verdict).
    pub hits: u64,
    /// Lookups that analysed, trained and verified a fresh artifact.
    pub misses: u64,
    /// Deployments refused by the verification gate (first encounter only;
    /// cached rejections count as hits).
    pub rejections: u64,
}

impl ArtifactCacheStats {
    /// Fraction of lookups served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.hits as f64 / total as f64
        }
    }
}

/// The fleet's shared deployment store.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    entries: HashMap<u64, Verdict>,
    stats: ArtifactCacheStats,
}

impl ArtifactCache {
    /// Creates an empty cache.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// Returns the shared deployment for `image`, building it on first
    /// sight: analyse → train on `corpus` → verify → admit or reject. The
    /// verdict (either way) is cached under the image's content hash.
    ///
    /// # Errors
    ///
    /// Returns the verifier's [`Report`](fg_verify::Report) when the
    /// artifact fails the admission gate — on the miss that discovered it
    /// and on every cached retry.
    pub fn deploy(
        &mut self,
        image: &Image,
        corpus: &[Vec<u8>],
    ) -> Result<Arc<Deployment>, Arc<fg_verify::Report>> {
        let key = image_hash(image);
        if let Some(verdict) = self.entries.get(&key) {
            self.stats.hits += 1;
            return match verdict {
                Verdict::Admitted(d) => Ok(Arc::clone(d)),
                Verdict::Rejected(r) => Err(Arc::clone(r)),
            };
        }
        self.stats.misses += 1;
        let mut d = Deployment::analyze(image);
        if !corpus.is_empty() {
            d.train(corpus);
        }
        self.admit_at(key, d)
    }

    /// Admits a pre-built deployment (e.g. one loaded from a saved
    /// artifact) through the same verification gate and verdict cache.
    ///
    /// # Errors
    ///
    /// Returns the verifier's report when the deployment fails admission.
    pub fn admit(&mut self, d: Deployment) -> Result<Arc<Deployment>, Arc<fg_verify::Report>> {
        let key = image_hash(&d.image);
        if let Some(verdict) = self.entries.get(&key) {
            self.stats.hits += 1;
            return match verdict {
                Verdict::Admitted(d) => Ok(Arc::clone(d)),
                Verdict::Rejected(r) => Err(Arc::clone(r)),
            };
        }
        self.stats.misses += 1;
        self.admit_at(key, d)
    }

    fn admit_at(
        &mut self,
        key: u64,
        d: Deployment,
    ) -> Result<Arc<Deployment>, Arc<fg_verify::Report>> {
        let report = d.verify();
        if report.has_errors() {
            let report = Arc::new(report);
            self.stats.rejections += 1;
            self.entries.insert(key, Verdict::Rejected(Arc::clone(&report)));
            return Err(report);
        }
        let d = Arc::new(d);
        self.entries.insert(key, Verdict::Admitted(Arc::clone(&d)));
        Ok(d)
    }

    /// Distinct images (admitted or rejected) the cache has seen.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ArtifactCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_image_shares_one_deployment() {
        let w = fg_workloads::nginx_patched();
        let mut cache = ArtifactCache::new();
        let corpus = vec![w.default_input.clone()];
        let d1 = cache.deploy(&w.image, &corpus).expect("admitted");
        let d2 = cache.deploy(&w.image, &corpus).expect("admitted");
        assert!(Arc::ptr_eq(&d1, &d2), "instances share one artifact");
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.rejections), (1, 1, 0));
        assert!((st.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_images_get_distinct_entries() {
        let a = fg_workloads::nginx_patched();
        let b = fg_workloads::vsftpd();
        assert_ne!(image_hash(&a.image), image_hash(&b.image));
        let mut cache = ArtifactCache::new();
        let da = cache.deploy(&a.image, std::slice::from_ref(&a.default_input)).expect("admitted");
        let db = cache.deploy(&b.image, std::slice::from_ref(&b.default_input)).expect("admitted");
        assert!(!Arc::ptr_eq(&da, &db));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn rejection_is_cached() {
        // Corrupt a trained deployment the same way the deploy.rs artifact
        // test does: truncate the credit table so FG verification fails.
        let w = fg_workloads::nginx_patched();
        let mut d = Deployment::analyze(&w.image);
        d.train(std::slice::from_ref(&w.default_input));
        let v = d.itc.raw_view();
        let (nodes, ranges, targets, mut credits, tnt) = (
            v.node_addrs.to_vec(),
            v.ranges.to_vec(),
            v.targets.to_vec(),
            v.credits.to_vec(),
            v.tnt.to_vec(),
        );
        credits.pop().expect("has edges");
        d.itc = fg_cfg::ItcCfg::from_raw_parts(nodes, ranges, targets, credits, tnt);

        let mut cache = ArtifactCache::new();
        let r1 = cache.admit(d.clone()).expect_err("rejected");
        assert!(r1.has_errors());
        let r2 = cache.admit(d).expect_err("still rejected");
        assert!(Arc::ptr_eq(&r1, &r2), "cached verdict served");
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.rejections), (1, 1, 1));
    }
}
