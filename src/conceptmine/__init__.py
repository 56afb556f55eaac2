"""Concept mining over part-feature datasets: prototype centers, per-class
concept books, concept activation vectors, a sparse linear head, and an
explainability metric suite with an occlusion harness."""

from .cav import ConceptActivationVector, compute_cav, compute_cav_batch
from .dataset import (GroundTruth, PartFeatureDataset, SyntheticSpec,
                      generate_synthetic, load_dataset, save_dataset,
                      split_kfold, subset)
from .errors import (CompatibilityError, ConceptMineError, DivergenceError,
                     FormatError, GenerationError, StratificationError,
                     ValidationError)
from .head import (HeadTrainConfig, SparseHead, accuracy, concept_contributions,
                   elastic_net_penalty, head_forward, predict, train_head)
from .mining import (ConceptBook, ConceptEntry, MergeConfig, MiningConfig,
                     dbscan, merge_centroids, mine_concepts)
from .occlusion import OcclusionConfig, occlude_sample, occlusion_eval
from .partproto import (McmConfig, PrototypeCenters, fit_prototype_centers,
                        mcc_gradients, mcc_loss)
from .xaimetrics import (consistency, faithfulness, hungarian, metric_report,
                         sparseness, stability)

__version__ = "0.1.0"
