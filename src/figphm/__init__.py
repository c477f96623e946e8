"""Personal health mention detection with figurative-usage awareness.

Subpackages by stage: ``corpus`` (datasets, tokenization, agreement),
``embeddings`` (tables, similarity, retrofitting), ``figurative`` (literal
usage scoring and verdicts), ``neuralnet`` (from-scratch differentiable
kernels), ``phm`` (the classifiers and combiners), ``harness`` (configs,
cross-validation, reports), ``synthetic`` (generated fixtures).
"""

from .corpus import (Document, AnnotationPair, cohen_kappa, load_dataset, pad,
                     tokenize, build_vocab)
from .embeddings import (EmbeddingTable, OntologyGraph, cosine, load_ontology,
                         load_table, nearest_neighbors, random_table, retrofit,
                         save_table)
from .figurative import (FigurativeDetector, FigurativeVerdict,
                         LiteralRepresentation, classify, extract_features,
                         lda_estimate, literal_usage_score, pos_tag)
from .harness import (ExperimentConfig, ExperimentReport, Metrics,
                      compute_metrics, evaluate_figurative, load_config,
                      run_experiment, stratified_kfold)
from .phm import (FeatAugModel, ModelConfig, PhmdModel, build_feataug,
                  build_phmd, load_model, pipeline_predict, predict,
                  save_model, train)

__version__ = "0.1.0"
