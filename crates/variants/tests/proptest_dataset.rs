//! Property test for the dataset factory: the worker count never shows
//! through in the produced table.

use everest_variants::dataset::{self, DatasetConfig};
use proptest::prelude::*;

fn corpus() -> everest_ir::Module {
    everest_dsl::compile_kernels(
        "kernel mm(a: tensor<8x8xf64>, b: tensor<8x8xf64>) -> tensor<8x8xf64> {
             return a @ b;
         }
         kernel ax(a: tensor<32xf64>, b: tensor<32xf64>) -> tensor<32xf64> {
             return 2.0 * a + b;
         }",
    )
    .expect("corpus compiles")
}

proptest! {
    // Each case fans real (simulated) synthesis across worker pools, so
    // keep the case count low: the property is about seeds, not volume.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn dataset_production_never_exposes_the_worker_count(
        seed in 0u64..1_000,
        points in 8usize..24,
    ) {
        let module = corpus();
        let funcs: Vec<&everest_ir::Func> = module.iter().collect();
        let reference = dataset::produce(
            &funcs,
            &DatasetConfig { seed, points, jobs: 1, ..DatasetConfig::default() },
        )
        .expect("production succeeds");
        for jobs in [2usize, 4] {
            let parallel = dataset::produce(
                &funcs,
                &DatasetConfig { seed, points, jobs, ..DatasetConfig::default() },
            )
            .expect("production succeeds");
            prop_assert_eq!(reference.to_csv(), parallel.to_csv());
        }
    }
}
