//! A minimal cheaply-cloneable immutable byte buffer.
//!
//! Frames are cloned at every tap, mirror port and retransmission, so
//! payloads must be reference-counted rather than deep-copied. The
//! workspace used to pull the `bytes` crate for this; a hermetic,
//! offline-buildable workspace only needs this small subset: an
//! `Arc<[u8]>` with slice ergonomics. Construction from a `Vec<u8>` or
//! slice copies once; every subsequent clone is a pointer bump.
//!
//! Traffic sources allocate each payload with `Bytes::from(vec![..])`,
//! with no recycling pool in front: on every benchmark workload a pool
//! bought nothing beyond run-to-run noise (DESIGN.md §9).

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply-cloneable contiguous byte buffer.
///
/// Dereferences to `&[u8]`, so all slice methods (`len`, `iter`,
/// indexing, `to_vec`, ...) apply directly.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// A new empty buffer. Does not allocate a backing store per call.
    pub fn new() -> Bytes {
        // An empty Arc<[u8]> allocates only the refcount header; cheap
        // enough, and `Bytes::new()` is rare on hot paths.
        Bytes(Arc::from(&[][..]))
    }

    /// Buffer backed by a static slice (copied once into the Arc; the
    /// name mirrors `bytes::Bytes::from_static` for the call sites).
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes(Arc::from(data))
    }

    /// Copy the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }

    /// Mutable access when this is the sole reference to the buffer.
    ///
    /// Returns `None` if any clone is alive, preserving the immutable
    /// sharing contract. Lets hot paths (e.g. in-flight corruption)
    /// flip bytes in place instead of copying the whole payload.
    pub fn get_mut(&mut self) -> Option<&mut [u8]> {
        Arc::get_mut(&mut self.0)
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes(Arc::from(v))
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes(Arc::from(s))
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(a: [u8; N]) -> Bytes {
        Bytes(Arc::from(&a[..]))
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == other[..]
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        *self == **other
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == **other
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.0.iter() {
            // Matches bytes::Bytes's readable escape style.
            match b {
                b'"' => write!(f, "\\\"")?,
                b'\\' => write!(f, "\\\\")?,
                b'\n' => write!(f, "\\n")?,
                b'\r' => write!(f, "\\r")?,
                b'\t' => write!(f, "\\t")?,
                0x20..=0x7e => write!(f, "{}", b as char)?,
                _ => write!(f, "\\x{b:02x}")?,
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_deref() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
        assert!(Bytes::new().is_empty());
        assert!(Bytes::default().is_empty());
        assert_eq!(Bytes::from_static(b"pong").len(), 4);
        assert_eq!(Bytes::from(&[9u8, 8][..]), Bytes::from(vec![9u8, 8]));
    }

    #[test]
    fn clone_shares_storage() {
        let a = Bytes::from(vec![7u8; 1024]);
        let b = a.clone();
        assert_eq!(a, b);
        // Same backing allocation, not a deep copy.
        assert!(std::ptr::eq(a.as_ref(), b.as_ref()));
    }

    #[test]
    fn cross_type_equality() {
        let b = Bytes::from(vec![1u8, 2]);
        assert_eq!(b, vec![1u8, 2]);
        assert_eq!(b, &[1u8, 2][..]);
        assert_eq!(vec![1u8, 2], b);
    }

    #[test]
    fn get_mut_only_when_unshared() {
        let mut a = Bytes::from(vec![1u8, 2, 3]);
        a.get_mut().expect("sole owner")[1] = 9;
        assert_eq!(a, &[1u8, 9, 3][..]);
        let b = a.clone();
        assert!(a.get_mut().is_none(), "shared buffer must stay immutable");
        drop(b);
        assert!(a.get_mut().is_some(), "unique again after clone drops");
    }

    #[test]
    fn debug_is_readable() {
        let b = Bytes::from(&b"ok\x01"[..]);
        assert_eq!(format!("{b:?}"), "b\"ok\\x01\"");
    }
}
