//! Which build of a leaf kernel runs: the portable one, or on x86-64 one
//! compiled with AVX2 when the CPU has it (checked at run time). GEMM's
//! band kernel and the stencil's region update both pick theirs here.

/// A build of a kernel's `#[inline(always)]` body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    /// Compiled for the build's target: SSE2 on baseline x86-64.
    Portable,
    /// Compiled with AVX2 enabled, never FMA: a product stays one multiply
    /// followed by one add. Runs the portable build on a CPU without AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Isa {
    /// The widest build this CPU runs.
    pub(crate) fn host() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Portable
    }
}

/// Every build this CPU runs, for tests that hold each to an oracle; says
/// when it skips the AVX2 build.
#[cfg(test)]
pub(crate) fn every() -> Vec<Isa> {
    if Isa::host() == Isa::Portable {
        eprintln!("AVX2 build skipped: this CPU lacks AVX2");
        return vec![Isa::Portable];
    }
    vec![Isa::Portable, Isa::host()]
}
