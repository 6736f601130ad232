"""nl2sql-harness: text-to-SQL synthesis, evaluation and failure triage."""

from .dataset import LoadedDataset, SpiderExample, load_dataset
from .execution import ExecOutcome, ResultTable, execute, tables_equivalent
from .hardness import Hardness, classify_hardness
from .llm import HttpChatTransport, ModelEndpoint, ReplayTransport, Sampling
from .mdtable import render_markdown
from .pipeline import PipelineConfig, PipelineTranscript, Verdict, run_many, run_pipeline
from .schema import DatabaseSchema
from .sqlast import canonicalize, diff, parse, to_sql
from .evaluate import EvalReport, score, weighted_execution_accuracy
from .triage import Category, TriageVerdict, triage

__version__ = "0.1.0"

__all__ = [
    "Category",
    "DatabaseSchema",
    "EvalReport",
    "ExecOutcome",
    "Hardness",
    "HttpChatTransport",
    "LoadedDataset",
    "ModelEndpoint",
    "PipelineConfig",
    "PipelineTranscript",
    "ReplayTransport",
    "ResultTable",
    "Sampling",
    "SpiderExample",
    "TriageVerdict",
    "Verdict",
    "canonicalize",
    "classify_hardness",
    "diff",
    "execute",
    "load_dataset",
    "parse",
    "render_markdown",
    "run_many",
    "run_pipeline",
    "score",
    "tables_equivalent",
    "to_sql",
    "triage",
    "weighted_execution_accuracy",
]
