"""Synthetic analogs of the paper's evaluation datasets."""

from .registry import DatasetSpec, build_dataset, dataset_names, get_dataset

__all__ = [
    "DatasetSpec",
    "build_dataset",
    "dataset_names",
    "get_dataset",
]
