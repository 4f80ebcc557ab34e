//! Golden values of the seeded generator and of every workload built on
//! it. Each table, benchmark input digest and canonical journal in the
//! repo descends from these bits, so any drift must fail here first.

use cps_trace::rng::Rng;
use cps_trace::WorkloadSpec;

/// 64-bit FNV-1a over the little-endian bytes of each block.
fn fnv(blocks: &[u64]) -> u64 {
    blocks
        .iter()
        .flat_map(|b| b.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn first_draws_of_seed_42() {
    let mut rng = Rng::seed_from_u64(42);
    let got: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
    assert_eq!(
        got,
        [
            0x1578_0b2e_0c2e_c716,
            0x6104_d986_6d11_3a7e,
            0xae17_5332_39e4_99a1,
            0xecb8_ad47_03b3_60a1,
            0xfde6_dc7f_e2ec_5e64,
            0xc50d_a531_0179_5238,
            0xb821_5485_5a65_ddb2,
            0xd99a_2743_ebe6_0087,
        ]
    );
}

#[test]
fn shuffle_of_0_to_100() {
    let mut v: Vec<u32> = (0..100).collect();
    Rng::seed_from_u64(42).shuffle(&mut v);
    assert_eq!(
        v,
        [
            0, 47, 31, 56, 69, 26, 40, 3, 12, 35, 55, 93, 10, 86, 83, 75, 18, 11, 24, 92, 19, 39,
            71, 5, 98, 60, 64, 20, 13, 22, 4, 78, 17, 77, 54, 62, 52, 99, 84, 38, 43, 21, 33, 49,
            82, 1, 65, 9, 15, 88, 68, 44, 85, 30, 6, 97, 72, 76, 41, 32, 59, 94, 2, 50, 48, 90, 63,
            81, 42, 28, 16, 45, 80, 29, 36, 23, 46, 34, 14, 7, 57, 58, 87, 51, 74, 96, 27, 91, 25,
            61, 53, 70, 79, 67, 73, 95, 89, 66, 37, 8,
        ]
    );
}

#[test]
fn workload_digests() {
    let specs = [
        WorkloadSpec::SequentialLoop { working_set: 300 },
        WorkloadSpec::Strided {
            region: 1000,
            stride: 7,
        },
        WorkloadSpec::UniformRandom { region: 5000 },
        WorkloadSpec::Zipfian {
            region: 5000,
            alpha: 0.8,
        },
        WorkloadSpec::PointerChase { region: 5000 },
        WorkloadSpec::Stencil { rows: 40, cols: 50 },
        WorkloadSpec::WorkingSetWalk {
            region: 3000,
            window: 300,
            dwell: 500,
        },
        WorkloadSpec::Phased {
            phases: vec![
                (WorkloadSpec::UniformRandom { region: 800 }, 3000),
                (WorkloadSpec::PointerChase { region: 200 }, 2000),
            ],
        },
        WorkloadSpec::Mixture {
            parts: vec![
                (0.7, WorkloadSpec::SequentialLoop { working_set: 64 }),
                (
                    0.3,
                    WorkloadSpec::Zipfian {
                        region: 2000,
                        alpha: 1.1,
                    },
                ),
            ],
        },
    ];
    let got: Vec<u64> = specs
        .iter()
        .map(|spec| fnv(&spec.generate(100_000, 7).blocks))
        .collect();
    assert_eq!(
        got,
        [
            0xd9df_3043_9db9_a841,
            0xf88e_b348_92e2_b074,
            0xa663_d937_6151_1382,
            0x85bf_5c70_0b86_6b7e,
            0x8d53_b52a_cf7f_5385,
            0x5cb9_5616_1a09_790e,
            0x9cdf_6987_bafa_4aee,
            0x9121_5316_2621_1dac,
            0x509f_6eef_99c9_1c9a,
        ]
    );
}
