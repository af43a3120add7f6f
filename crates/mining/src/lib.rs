//! # wap-mining — data-mining false positive predictor
//!
//! Implements the *false positives predictor* module of WAP (Medeiros et
//! al., DSN 2016, Fig. 3): symptoms are collected from the source code
//! around each candidate vulnerability, folded into the 61-attribute
//! vector of Table I (60 features + class), and classified by a committee
//! of the top-3 machine-learning classifiers (SVM, Logistic Regression,
//! Random Forest). All classifiers, the metrics of Table II, and the
//! cross-validation harness are implemented from scratch (the paper used
//! WEKA).
//!
//! ## Quick start
//!
//! ```
//! use wap_mining::{FalsePositivePredictor, PredictorGeneration, Dataset};
//! use wap_mining::classifiers::ClassifierKind;
//! use wap_mining::metrics::{cross_validate, Metrics};
//!
//! // Table II: evaluate a classifier on the 256-instance data set
//! let data = Dataset::wape(42);
//! let cm = cross_validate(ClassifierKind::Svm, &data.x, &data.y, 10, 42);
//! let m = Metrics::from_confusion(&cm);
//! assert!(m.acc > 0.85);
//!
//! // The production committee
//! let predictor = FalsePositivePredictor::train(PredictorGeneration::Wape, 42);
//! let _ = predictor;
//! ```

#![warn(missing_docs)]

pub mod arff;
pub mod attributes;
pub mod classifiers;
pub mod dataset;
pub mod metrics;
pub mod predictor;
pub mod symptoms;

pub use arff::{from_arff, to_arff};
pub use attributes::{intern_symptom_name, symptoms, Category, Group, Symptom};
pub use classifiers::{Classifier, ClassifierKind};
pub use dataset::Dataset;
pub use metrics::{cross_validate, ConfusionMatrix, Metrics};
pub use predictor::{FalsePositivePredictor, Prediction, PredictorGeneration};
pub use symptoms::{collect, refine_with_sink_context, DynamicSymptomMap, FeatureVector};
