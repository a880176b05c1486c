//! Criterion microbenchmarks for the compute kernels behind each experiment.
//!
//! One group per experiment family (see DESIGN.md experiment index):
//! fairness metrics & mitigation (E1/E2), multiple testing (E3), Simpson
//! (E4), DP mechanisms (E5), Mondrian (E6), surrogate distillation (E7),
//! causal estimators (E8), stream guards (E9), and the durable audit
//! writer's per-entry encode (E13).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use fact_accuracy::simpson::audit_simpson;
use fact_causal::ipw::ipw_ate;
use fact_causal::propensity::psm_ate;
use fact_confidentiality::kanon::mondrian_k_anonymize;
use fact_confidentiality::mechanisms::{dp_histogram, dp_mean, dp_quantile};
use fact_core::runtime::GuardedStream;
use fact_data::stream::InternetMinute;
use fact_data::synth::admissions::{generate_admissions, AdmissionsConfig};
use fact_data::synth::census::{generate_census, CensusConfig};
use fact_data::synth::clinical::{generate_clinical, ClinicalConfig, CLINICAL_COVARIATES};
use fact_data::synth::loans::{generate_loans, LoanConfig};
use fact_fairness::metrics::{disparate_impact, equalized_odds_difference};
use fact_fairness::mitigation::repair::repair_disparate_impact;
use fact_fairness::mitigation::reweighing::reweighing_weights;
use fact_fairness::protected_mask;
use fact_fairness::proxy::scan_proxies;
use fact_ml::logistic::{LogisticConfig, LogisticRegression};
use fact_ml::tree::{DecisionTree, TreeConfig};
use fact_ml::Classifier;
use fact_stats::multiple::{benjamini_hochberg, holm};
use fact_transparency::audit::ChainHead;
use fact_transparency::surrogate::SurrogateExplainer;
use rand::{Rng, SeedableRng};

fn bench_fairness_metrics(c: &mut Criterion) {
    // E1 kernel: group metrics on 100k predictions
    let n = 100_000;
    let pred: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
    let truth: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    let mask: Vec<bool> = (0..n).map(|i| i % 5 == 0).collect();
    let mut g = c.benchmark_group("e1_fairness_metrics");
    g.bench_function("disparate_impact_100k", |b| {
        b.iter(|| disparate_impact(black_box(&pred), black_box(&mask)).unwrap())
    });
    g.bench_function("equalized_odds_100k", |b| {
        b.iter(|| equalized_odds_difference(black_box(&truth), &pred, &mask).unwrap())
    });
    let loans = generate_loans(&LoanConfig {
        n: 10_000,
        seed: 1,
        proxy_strength: 0.7,
        ..LoanConfig::default()
    });
    let lmask = protected_mask(&loans, "group", "B").unwrap();
    g.bench_function("proxy_scan_10k_x7", |b| {
        b.iter(|| scan_proxies(black_box(&loans), &lmask, &["group", "approved"]).unwrap())
    });
    g.finish();
}

fn bench_mitigation(c: &mut Criterion) {
    // E2 kernel
    let loans = generate_loans(&LoanConfig {
        n: 10_000,
        seed: 2,
        bias_strength: 0.4,
        feature_gap: 10.0,
        ..LoanConfig::default()
    });
    let mask = protected_mask(&loans, "group", "B").unwrap();
    let y = loans.bool_column("approved").unwrap().to_vec();
    let mut g = c.benchmark_group("e2_mitigation");
    g.bench_function("reweighing_weights_10k", |b| {
        b.iter(|| reweighing_weights(black_box(&y), black_box(&mask)).unwrap())
    });
    g.sample_size(20);
    g.bench_function("di_repair_10k_x4", |b| {
        b.iter(|| {
            repair_disparate_impact(
                black_box(&loans),
                &["income", "credit_score", "debt_ratio", "years_employed"],
                &mask,
                0.8,
            )
            .unwrap()
        })
    });
    g.finish();
}

fn bench_multiple_testing(c: &mut Criterion) {
    // E3 kernel: corrections on 10k p-values
    let ps: Vec<f64> = (1..=10_000).map(|i| i as f64 / 10_001.0).collect();
    let mut g = c.benchmark_group("e3_multiple_testing");
    g.bench_function("holm_10k", |b| b.iter(|| holm(black_box(&ps)).unwrap()));
    g.bench_function("bh_10k", |b| {
        b.iter(|| benjamini_hochberg(black_box(&ps)).unwrap())
    });
    g.finish();
}

fn bench_simpson(c: &mut Criterion) {
    // E4 kernel
    let ds = generate_admissions(&AdmissionsConfig { n: 12_000, seed: 4 });
    c.benchmark_group("e4_simpson")
        .bench_function("audit_12k", |b| {
            b.iter(|| {
                audit_simpson(
                    black_box(&ds),
                    "admitted",
                    "gender",
                    "male",
                    "female",
                    "department",
                )
                .unwrap()
            })
        });
}

fn bench_audit_line(c: &mut Criterion) {
    // E13 kernel: the audit writer's per-batch work before append + fsync,
    // chain-extending and encoding one 64-entry batch of flagged decisions
    let events: Vec<(String, String)> = (0..64u64)
        .map(|k| {
            (
                format!("shard-{}", k % 2),
                format!(
                    "key={} p={:.6} favorable=false group_b=true",
                    1_000_003 * k,
                    0.1 + k as f64 / 1000.0
                ),
            )
        })
        .collect();
    let mut head = ChainHead::genesis();
    let mut buf = Vec::with_capacity(64 * 300);
    c.benchmark_group("e13_audit_writer")
        .bench_function("audit_line_64", |b| {
            b.iter(|| {
                buf.clear();
                for (actor, details) in &events {
                    head.extend_json_line(actor, "flagged_decision", details, &mut buf);
                }
                black_box(buf.len())
            })
        });
}

fn bench_dp_mechanisms(c: &mut Criterion) {
    // E5 kernel
    let census = generate_census(&CensusConfig {
        n: 10_000,
        seed: 5,
        ..CensusConfig::default()
    });
    let salaries = census.f64_column("salary").unwrap();
    let counts: Vec<u64> = (0..1000).map(|i| (i * 37 % 500) as u64).collect();
    let mut g = c.benchmark_group("e5_dp_mechanisms");
    g.bench_function("dp_mean_10k", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            dp_mean(black_box(&salaries), 0.0, 250.0, 1.0, seed).unwrap()
        })
    });
    g.bench_function("dp_histogram_1k_buckets", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            dp_histogram(black_box(&counts), 1.0, seed).unwrap()
        })
    });
    g.bench_function("dp_quantile_10k", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            dp_quantile(black_box(&salaries), 0.5, 0.0, 250.0, 1.0, seed).unwrap()
        })
    });
    g.finish();
}

fn bench_kanon(c: &mut Criterion) {
    // E6 kernel
    let census = generate_census(&CensusConfig {
        n: 5_000,
        seed: 6,
        ..CensusConfig::default()
    });
    let mut g = c.benchmark_group("e6_kanon");
    g.sample_size(10);
    g.bench_function("mondrian_5k_k10", |b| {
        b.iter(|| mondrian_k_anonymize(black_box(&census), &["age", "sex", "zipcode"], 10).unwrap())
    });
    g.finish();
}

fn bench_surrogate(c: &mut Criterion) {
    // E7 kernel: tree distillation of a fitted model's predictions
    let loans = generate_loans(&LoanConfig {
        n: 6_000,
        seed: 7,
        ..LoanConfig::default()
    });
    let x = loans
        .to_matrix(&["income", "credit_score", "debt_ratio", "years_employed"])
        .unwrap();
    let y = loans.bool_column("approved").unwrap().to_vec();
    let model = LogisticRegression::fit(&x, &y, None, &LogisticConfig::default()).unwrap();
    let names = ["income", "credit_score", "debt_ratio", "years_employed"];
    let mut g = c.benchmark_group("e7_surrogate");
    g.sample_size(10);
    g.bench_function("distill_depth4_6k", |b| {
        b.iter(|| SurrogateExplainer::distill(&model, black_box(&x), &x, &names, 4).unwrap())
    });
    g.bench_function("tree_fit_6k", |b| {
        b.iter(|| DecisionTree::fit(black_box(&x), &y, &TreeConfig::default()).unwrap())
    });
    g.bench_function("tree_predict_6k", |b| {
        let tree = DecisionTree::fit(&x, &y, &TreeConfig::default()).unwrap();
        b.iter(|| tree.predict(black_box(&x)).unwrap())
    });
    g.finish();
}

fn bench_causal(c: &mut Criterion) {
    // E8 kernel
    let w = generate_clinical(&ClinicalConfig {
        n: 8_000,
        seed: 8,
        ..ClinicalConfig::default()
    });
    let x = w.data.to_matrix(&CLINICAL_COVARIATES).unwrap();
    let t = w.data.bool_column("treated").unwrap().to_vec();
    let y = w.data.bool_column("recovered").unwrap().to_vec();
    let mut g = c.benchmark_group("e8_causal");
    g.sample_size(10);
    g.bench_function("psm_8k", |b| {
        b.iter(|| psm_ate(black_box(&x), &t, &y, f64::INFINITY, 0).unwrap())
    });
    g.bench_function("ipw_8k", |b| {
        b.iter(|| ipw_ate(black_box(&x), &t, &y, 0.01, 0).unwrap())
    });
    g.finish();
}

fn bench_stream_guards(c: &mut Criterion) {
    // E9 kernel: per-event cost with and without guards
    let events: Vec<_> = InternetMinute::new(9).take(100_000).collect();
    let mut g = c.benchmark_group("e9_stream_guards");
    g.sample_size(20);
    g.bench_function("unguarded_100k", |b| {
        b.iter_batched(
            GuardedStream::unguarded,
            |mut p| {
                for ev in &events {
                    p.process(ev);
                }
                black_box(p.value_sum())
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("guarded_100k", |b| {
        b.iter_batched(
            || GuardedStream::guarded(5_000, 0.8, 10_000, 100.0, 100, 1).unwrap(),
            |mut p| {
                for ev in &events {
                    p.process(ev);
                }
                black_box(p.value_sum())
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_matmul(c: &mut Criterion) {
    // E12 kernel: cache-blocked + parallel matmul vs the naive triple loop
    let square = |n: usize, seed: u64| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        fact_data::Matrix::from_flat(data, n, n).unwrap()
    };
    let a = square(128, 12);
    let b = square(128, 13);
    let mut g = c.benchmark_group("e12_matmul");
    g.sample_size(20);
    g.bench_function("naive_128", |bch| {
        bch.iter(|| black_box(&a).matmul_naive(black_box(&b)).unwrap())
    });
    g.bench_function("tiled_par_128", |bch| {
        bch.iter(|| black_box(&a).matmul(black_box(&b)).unwrap())
    });
    g.bench_function("tiled_1worker_128", |bch| {
        fact_par::set_workers(1);
        bch.iter(|| black_box(&a).matmul(black_box(&b)).unwrap());
        fact_par::set_workers(0);
    });
    g.finish();
}

fn bench_training(c: &mut Criterion) {
    // shared substrate: model training cost
    let loans = generate_loans(&LoanConfig {
        n: 10_000,
        seed: 10,
        ..LoanConfig::default()
    });
    let x = loans
        .to_matrix(&["income", "credit_score", "debt_ratio", "years_employed"])
        .unwrap();
    let y = loans.bool_column("approved").unwrap().to_vec();
    let mut g = c.benchmark_group("substrate_training");
    g.sample_size(10);
    g.bench_function("logistic_fit_10k_x4", |b| {
        b.iter(|| {
            LogisticRegression::fit(
                black_box(&x),
                &y,
                None,
                &LogisticConfig {
                    epochs: 20,
                    ..LogisticConfig::default()
                },
            )
            .unwrap()
        })
    });
    g.finish();
}

criterion_group!(
    kernels,
    bench_fairness_metrics,
    bench_mitigation,
    bench_multiple_testing,
    bench_simpson,
    bench_audit_line,
    bench_dp_mechanisms,
    bench_kanon,
    bench_surrogate,
    bench_causal,
    bench_stream_guards,
    bench_matmul,
    bench_training,
);
criterion_main!(kernels);
